package cache

import (
	"gputlb/internal/arch"
	"gputlb/internal/stats"
)

// LineAddr identifies a cache line (byte address >> line shift).
type LineAddr uint64

// invalidTag marks an empty way. Real line addresses are byte addresses
// shifted right by the line size, so the all-ones pattern can never occur.
const invalidTag = ^LineAddr(0)

// Stats counts cache activity.
type Stats struct {
	Accesses  int64
	Hits      int64
	Misses    int64
	Evictions int64
}

// HitRate returns Hits/Accesses (0 when idle).
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// Cache is one cache level. Not safe for concurrent use.
//
// Tags and LRU stamps live in flat parallel arrays rather than per-set
// structs: a probe scans the set's ways as one contiguous run of words, so
// the common hit path touches a single host cache line. The stamp array is
// only read when choosing a victim and written on hits.
type Cache struct {
	cfg    arch.CacheConfig
	assoc  int
	nsets  int
	tags   []LineAddr // nsets*assoc; invalidTag marks an empty way
	stamps []uint64   // nsets*assoc; LRU clock of the last touch
	clock  uint64
	stats  Stats
}

// New builds a cache from a validated config.
func New(cfg arch.CacheConfig) *Cache {
	n := cfg.Sets()
	c := &Cache{
		cfg:    cfg,
		assoc:  cfg.Assoc,
		nsets:  n,
		tags:   make([]LineAddr, n*cfg.Assoc),
		stamps: make([]uint64, n*cfg.Assoc),
	}
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	return c
}

// Config returns the geometry.
func (c *Cache) Config() arch.CacheConfig { return c.cfg }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// RegisterStats registers the cache's counters and rates into r; values are
// read lazily at snapshot time.
func (c *Cache) RegisterStats(r *stats.Registry) {
	r.CounterFunc("accesses", func() int64 { return c.stats.Accesses })
	r.CounterFunc("hits", func() int64 { return c.stats.Hits })
	r.CounterFunc("misses", func() int64 { return c.stats.Misses })
	r.CounterFunc("evictions", func() int64 { return c.stats.Evictions })
	r.GaugeFunc("hit_rate", func() float64 { return c.stats.HitRate() })
	r.GaugeFunc("occupancy", func() float64 { return float64(c.Occupancy()) })
}

// ResetStats zeroes counters without touching contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// setOf maps a line to its set. Set counts need not be powers of two (the
// 1536KB L2 has 1536 sets), so this uses modulo, not masking.
func (c *Cache) setOf(addr LineAddr) int { return int(addr % LineAddr(c.nsets)) }

// Access looks up the line, allocating it on a miss (evicting LRU if the set
// is full). It reports whether the access hit.
func (c *Cache) Access(addr LineAddr) bool {
	c.clock++
	c.stats.Accesses++
	base := c.setOf(addr) * c.assoc
	tags := c.tags[base : base+c.assoc]
	for w := range tags {
		if tags[w] == addr {
			c.stamps[base+w] = c.clock
			c.stats.Hits++
			return true
		}
	}
	c.stats.Misses++
	// Victim: the first empty way if any, else the least recently used.
	victim := 0
	best := ^uint64(0)
	for w := range tags {
		if tags[w] == invalidTag {
			victim = w
			best = 0
			break
		}
		if s := c.stamps[base+w]; s < best {
			best = s
			victim = w
		}
	}
	if best != 0 {
		c.stats.Evictions++
	}
	c.tags[base+victim] = addr
	c.stamps[base+victim] = c.clock
	return false
}

// Contains reports presence without disturbing LRU or stats.
func (c *Cache) Contains(addr LineAddr) bool {
	base := c.setOf(addr) * c.assoc
	for _, tg := range c.tags[base : base+c.assoc] {
		if tg == addr {
			return true
		}
	}
	return false
}

// Occupancy returns the number of valid lines.
func (c *Cache) Occupancy() int {
	n := 0
	for _, tg := range c.tags {
		if tg != invalidTag {
			n++
		}
	}
	return n
}

// Flush invalidates all lines.
func (c *Cache) Flush() {
	for i := range c.tags {
		c.tags[i] = invalidTag
		c.stamps[i] = 0
	}
}
