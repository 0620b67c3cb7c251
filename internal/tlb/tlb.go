package tlb

import (
	"fmt"

	"gputlb/internal/arch"
	"gputlb/internal/stats"
	"gputlb/internal/tlbmech"
	"gputlb/internal/vm"
)

// DefaultCompressionSpan is the aligned group size (in pages) a compressed
// entry can cover.
const DefaultCompressionSpan = 8

// Options selects the TLB variant.
type Options struct {
	Policy  arch.TLBIndexPolicy
	Sharing arch.SharingMode
	// ShareCounterThreshold > 0 replaces the 1-bit sharing flag with a
	// saturating counter: sharing into a neighbour activates only after the
	// threshold number of spill opportunities (paper future-work ablation).
	ShareCounterThreshold int
	// Compression enables contiguity-coalescing entries (a base-mechanism
	// feature; incompatible with a non-base Mech).
	Compression bool
	// CompressionSpan is the aligned group size in pages (power of two).
	// Zero means DefaultCompressionSpan.
	CompressionSpan int
	// Replacement selects the victim policy (LRU by default).
	Replacement arch.TLBReplacementPolicy
	// Mech selects the pluggable translation mechanism (tlbmech.Spec); the
	// zero value is the base mechanism, byte-identical to the
	// pre-mechanism TLB.
	Mech tlbmech.Spec
	// OnEvict, when set, is called with every valid translation this TLB
	// evicts (victim write-back: an L1 TLB hands its victims to the L2 so
	// L1-resident translations do not go stale there). Compressed entries
	// report their base page; sub-entry and large-reach entries report one
	// translation per covered (tenant, page). The victim's ASID rides along
	// so multi-tenant write-backs land in the right tenant's L2 partition.
	OnEvict func(asid vm.ASID, vpn vm.VPN, ppn vm.PPN)
}

// Stats counts TLB activity. ProbeSets accumulates the number of sets
// searched across all lookups: with a fixed per-set latency it is the total
// lookup-cycle cost, which is how the partitioning overhead enters the
// timing model.
type Stats struct {
	Accesses   int64
	Hits       int64
	Misses     int64
	ProbeSets  int64
	Evictions  int64
	Spills     int64 // victims relocated into a neighbour's set
	Coalesced  int64 // inserts absorbed with new coverage (compressed pages, sub-slots, run extensions)
	FlagSets   int64 // sharing-flag activations
	FlagResets int64
}

// HitRate returns Hits/Accesses (0 when idle).
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// TLB is one translation buffer. The mechanism-independent machinery lives
// here — set geometry, TB-slot partitioning, adjacent-set sharing,
// replacement, the baseline counters — while the entry format and its
// match/absorb/fill semantics are delegated to the configured
// tlbmech.Mechanism. It is not safe for concurrent use; the simulator
// drives each TLB from a single goroutine.
type TLB struct {
	cfg  arch.TLBConfig
	opt  Options
	sets [][]tlbmech.Entry

	mech tlbmech.Mechanism
	// deadAware caches mech.DeadAware so the base victim scan pays no
	// interface calls.
	deadAware bool

	clock    uint64 // LRU stamp source
	numSlots int    // concurrent TB slots configured on the owning SM

	// shareWith[i] is the bitmask of TB slots whose sets slot i may also
	// use. Adjacent mode only ever sets bit (i+1)%numSlots; all-to-all may
	// set any. Cleared on ConfigureSlots and on TB finish.
	shareWith []uint32
	// shareCount[i] counts spill opportunities toward ShareCounterThreshold.
	shareCount []int

	// partition, when non-nil, overrides ownedSets' equal split with
	// explicit contiguous per-slot bounds (SetPartition): slot i owns sets
	// [partition[i], partition[i+1]). Reset by ConfigureSlots.
	partition []int

	// probeBuf backs the set list setsToProbe returns: lookups are the
	// simulator's hottest loop and must not allocate. The buffer is
	// invalidated by the next setsToProbe call, which every user tolerates
	// (the TLB is single-goroutine and never probes itself reentrantly).
	probeBuf []int

	stats Stats
}

// New builds a TLB. cfg must already be validated.
func New(cfg arch.TLBConfig, opt Options) *TLB {
	if opt.Compression && opt.CompressionSpan == 0 {
		opt.CompressionSpan = DefaultCompressionSpan
	}
	if opt.Compression && opt.CompressionSpan&(opt.CompressionSpan-1) != 0 {
		panic(fmt.Sprintf("tlb: compression span %d not a power of two", opt.CompressionSpan))
	}
	t := &TLB{cfg: cfg, opt: opt}
	m, err := tlbmech.Build(opt.Mech, tlbmech.Geometry{
		Sets:            cfg.Sets(),
		Assoc:           cfg.Assoc,
		Compression:     opt.Compression,
		CompressionSpan: opt.CompressionSpan,
	})
	if err != nil {
		panic("tlb: " + err.Error())
	}
	t.mech = m
	t.deadAware = m.DeadAware()
	t.sets = make([][]tlbmech.Entry, cfg.Sets())
	backing := make([]tlbmech.Entry, cfg.Sets()*cfg.Assoc)
	for i := range t.sets {
		t.sets[i], backing = backing[:cfg.Assoc], backing[cfg.Assoc:]
	}
	t.ConfigureSlots(1)
	return t
}

// Config returns the geometry.
func (t *TLB) Config() arch.TLBConfig { return t.cfg }

// MechName returns the configured mechanism's name.
func (t *TLB) MechName() string { return t.mech.Name() }

// Stats returns a copy of the counters.
func (t *TLB) Stats() Stats { return t.stats }

// RegisterStats registers the TLB's counters and rates into r; values are
// read lazily at snapshot time. Non-base mechanisms add their own metrics
// under a "mech" child node; base registers nothing extra, keeping base
// snapshots byte-identical to the pre-mechanism TLB.
func (t *TLB) RegisterStats(r *stats.Registry) {
	r.CounterFunc("accesses", func() int64 { return t.stats.Accesses })
	r.CounterFunc("hits", func() int64 { return t.stats.Hits })
	r.CounterFunc("misses", func() int64 { return t.stats.Misses })
	r.CounterFunc("probe_sets", func() int64 { return t.stats.ProbeSets })
	r.CounterFunc("evictions", func() int64 { return t.stats.Evictions })
	r.CounterFunc("spills", func() int64 { return t.stats.Spills })
	r.CounterFunc("coalesced", func() int64 { return t.stats.Coalesced })
	r.CounterFunc("flag_sets", func() int64 { return t.stats.FlagSets })
	r.CounterFunc("flag_resets", func() int64 { return t.stats.FlagResets })
	r.GaugeFunc("hit_rate", func() float64 { return t.stats.HitRate() })
	r.GaugeFunc("occupancy", func() float64 { return float64(t.Occupancy()) })
	t.mech.RegisterStats(r)
}

// ResetStats zeroes the counters without touching contents.
func (t *TLB) ResetStats() { t.stats = Stats{} }

// ConfigureSlots sets the number of concurrent TB slots the owning SM runs
// (determined at kernel launch from the TB resource needs). It resets the
// sharing state but deliberately keeps TLB contents: TB ids are reused
// across TBs precisely so entries survive for potential inter-TB reuse.
func (t *TLB) ConfigureSlots(n int) {
	if n < 1 {
		n = 1
	}
	t.numSlots = n
	t.shareWith = make([]uint32, n)
	t.shareCount = make([]int, n)
	t.partition = nil
}

// NumSlots returns the configured concurrent TB slot count.
func (t *TLB) NumSlots() int { return t.numSlots }

// ownedSets returns the contiguous set range [lo,hi) owned by slot. With
// more slots than sets, slots fold onto single sets (slot mod sets). An
// explicit SetPartition overrides the equal split.
func (t *TLB) ownedSets(slot int) (lo, hi int) {
	if t.partition != nil {
		return t.partition[slot], t.partition[slot+1]
	}
	s := len(t.sets)
	n := t.numSlots
	if n > s {
		i := slot % s
		return i, i + 1
	}
	return slot * s / n, (slot + 1) * s / n
}

// SetPartition overrides the partitioned index policies' equal set split
// with explicit contiguous per-slot bounds: slot i owns sets
// [bounds[i], bounds[i+1]). bounds must have NumSlots+1 monotone entries
// spanning [0, Sets]; it is copied. Existing entries are kept — a set
// handed to another slot simply stops being probed by its old owner, and
// its stale entries age out of the new owner's pool. nil restores the
// equal split (as does ConfigureSlots).
func (t *TLB) SetPartition(bounds []int) {
	if bounds == nil {
		t.partition = nil
		return
	}
	if len(bounds) != t.numSlots+1 {
		panic(fmt.Sprintf("tlb: partition has %d bounds for %d slots", len(bounds), t.numSlots))
	}
	if bounds[0] != 0 || bounds[t.numSlots] != len(t.sets) {
		panic(fmt.Sprintf("tlb: partition spans [%d,%d], want [0,%d]",
			bounds[0], bounds[t.numSlots], len(t.sets)))
	}
	for i := 0; i < t.numSlots; i++ {
		if bounds[i+1] < bounds[i] {
			panic(fmt.Sprintf("tlb: partition not monotone at slot %d", i))
		}
	}
	if t.partition == nil {
		t.partition = make([]int, len(bounds))
	}
	copy(t.partition, bounds)
}

// Partition returns the explicit set partition, or nil when the equal
// split is in effect. The returned slice is the TLB's own copy; callers
// must not mutate it.
func (t *TLB) Partition() []int { return t.partition }

// entryIndex is the global per-entry index mechanisms key side tables by.
func (t *TLB) entryIndex(si, w int) int { return si*t.cfg.Assoc + w }

// setsToProbe lists the sets a lookup/insert for (slot, vpn) must search, in
// priority order (own sets first, then shared neighbours' sets). The
// returned slice aliases t.probeBuf and is only valid until the next call.
func (t *TLB) setsToProbe(slot int, vpn vm.VPN) []int {
	if t.opt.Policy == arch.IndexByAddress {
		t.probeBuf = append(t.probeBuf[:0], int(t.mech.Index(vpn))&(len(t.sets)-1))
		return t.probeBuf
	}
	lo, hi := t.ownedSets(slot)
	out := t.probeBuf[:0]
	for s := lo; s < hi; s++ {
		out = append(out, s)
	}
	if t.opt.Policy == arch.IndexByTBShared {
		mask := t.shareWith[slot]
		for other := 0; other < t.numSlots && mask != 0; other++ {
			if mask&(1<<uint(other)) == 0 {
				continue
			}
			mask &^= 1 << uint(other)
			olo, ohi := t.ownedSets(other)
			for s := olo; s < ohi; s++ {
				if s < lo || s >= hi { // folding can alias sets
					out = append(out, s)
				}
			}
		}
	}
	t.probeBuf = out
	return out
}

// Lookup translates vpn for the TB in the given slot under ASID 0 — the
// single-tenant path. It returns the PPN on a hit and the number of sets
// probed (each costing cfg.LookupLatency cycles). slot is ignored under
// IndexByAddress.
func (t *TLB) Lookup(slot int, vpn vm.VPN) (ppn vm.PPN, hit bool, setsProbed int) {
	return t.LookupA(0, slot, vpn)
}

// LookupA is Lookup for an explicit tenant: only entries the mechanism
// matches for asid can hit, so co-running tenants sharing a physical TLB
// contend for capacity without aliasing each other's translations.
func (t *TLB) LookupA(asid vm.ASID, slot int, vpn vm.VPN) (ppn vm.PPN, hit bool, setsProbed int) {
	t.clock++
	t.stats.Accesses++
	tag := t.mech.Tag(vpn)
	probe := t.setsToProbe(slot, vpn)
	t.stats.ProbeSets += int64(len(probe))
	for _, si := range probe {
		ways := t.sets[si]
		for w := range ways {
			e := &ways[w]
			if !e.Valid || e.VPN != tag {
				continue
			}
			p, ok := t.mech.Lookup(e, t.entryIndex(si, w), asid, vpn)
			if !ok {
				continue
			}
			e.Stamp = t.clock
			t.stats.Hits++
			return p, true, len(probe)
		}
	}
	t.stats.Misses++
	return 0, false, len(probe)
}

// Contains reports whether vpn is present for slot under ASID 0 without
// disturbing LRU, stats, or predictor state (test/diagnostic helper).
func (t *TLB) Contains(slot int, vpn vm.VPN) bool {
	return t.ContainsA(0, slot, vpn)
}

// ContainsA is Contains for an explicit tenant.
func (t *TLB) ContainsA(asid vm.ASID, slot int, vpn vm.VPN) bool {
	tag := t.mech.Tag(vpn)
	for _, si := range t.setsToProbe(slot, vpn) {
		for w := range t.sets[si] {
			e := &t.sets[si][w]
			if !e.Valid || e.VPN != tag {
				continue
			}
			if _, ok := t.mech.Peek(e, t.entryIndex(si, w), asid, vpn); ok {
				return true
			}
		}
	}
	return false
}

// Insert installs vpn→ppn for the TB in slot after a miss has been resolved,
// under ASID 0 (the single-tenant path). The mechanism first tries to
// absorb the translation into an existing tag-matching entry (refresh,
// compressed-group coalesce, sub-slot fill, run extension). Under
// partitioning with sharing, an eviction victim may be relocated into the
// adjacent TB's sets when a way there is free, activating the sharing flag
// (paper Fig. 9).
func (t *TLB) Insert(slot int, vpn vm.VPN, ppn vm.PPN) {
	t.InsertA(0, slot, vpn, ppn)
}

// InsertA is Insert for an explicit tenant; the entry is tagged with asid
// and only lookups the mechanism matches for it can hit.
func (t *TLB) InsertA(asid vm.ASID, slot int, vpn vm.VPN, ppn vm.PPN) {
	t.clock++
	tag := t.mech.Tag(vpn)

	probe := t.setsToProbe(slot, vpn)
	if len(probe) == 0 {
		return // zero-width partition slot: nowhere to hold the entry
	}

	// Refresh or coalesce into an existing entry.
	for _, si := range probe {
		for w := range t.sets[si] {
			e := &t.sets[si][w]
			if !e.Valid || e.VPN != tag {
				continue
			}
			switch t.mech.Absorb(e, t.entryIndex(si, w), asid, vpn, ppn, t.clock) {
			case tlbmech.AbsorbCoalesced:
				t.stats.Coalesced++
				return
			case tlbmech.AbsorbRefreshed:
				return
			}
		}
	}

	// Free way in any probed set? Own sets come first in probe order, so a
	// TB prefers its own partition; once the sharing flag is set the
	// neighbour's sets are part of the probed pool.
	for _, si := range probe {
		for w := range t.sets[si] {
			if !t.sets[si][w].Valid {
				t.mech.Fill(&t.sets[si][w], t.entryIndex(si, w), asid, vpn, tag, ppn, t.clock)
				return
			}
		}
	}

	// The probed sets are oversubscribed. Under partitioning+sharing an
	// overflowing TB checks the adjacent TB's sets (paper Figure 9): if the
	// neighbour has an empty way — or, more generally, its LRU entry is
	// staler than our own victim, i.e. the neighbour underutilizes its
	// sets — the sharing flag is set and the two TBs' sets become one
	// replacement pool. That is the "balance the number of translations
	// across multiple sets" behaviour of Section IV-B; the empty-slot
	// condition the paper states is the special case of a never-used way.
	if t.opt.Policy == arch.IndexByTBShared {
		if t.maybeActivateSharing(slot) {
			probe = t.setsToProbe(slot, vpn)
			for _, si := range probe {
				for w := range t.sets[si] {
					if !t.sets[si][w].Valid {
						t.mech.Fill(&t.sets[si][w], t.entryIndex(si, w), asid, vpn, tag, ppn, t.clock)
						t.stats.Spills++
						return
					}
				}
			}
		}
	}

	// Evict the victim among the probed sets: predicted-dead entries first
	// (dead-aware mechanisms only), then the configured replacement policy.
	vsi, vw := t.victim(probe)
	t.stats.Evictions++
	vidx := t.entryIndex(vsi, vw)
	if v := &t.sets[vsi][vw]; v.Valid {
		t.mech.OnEvict(v, vidx)
		if t.opt.OnEvict != nil {
			t.mech.Translations(v, vidx, t.opt.OnEvict)
		}
	}
	t.mech.Fill(&t.sets[vsi][vw], vidx, asid, vpn, tag, ppn, t.clock)
}

// maybeActivateSharing decides whether an oversubscribed slot should start
// sharing a neighbour's sets, returning true when a new flag was set.
// Neighbours already shared with are skipped (their sets are in the probe
// pool already); a neighbour qualifies when its LRU entry is older than the
// slot's own LRU victim (an empty way is trivially oldest).
func (t *TLB) maybeActivateSharing(slot int) bool {
	if t.numSlots < 2 {
		return false
	}
	neighbours := []int{(slot + 1) % t.numSlots}
	if t.opt.Sharing == arch.ShareAllToAll {
		neighbours = neighbours[:0]
		for o := 1; o < t.numSlots; o++ {
			neighbours = append(neighbours, (slot+o)%t.numSlots)
		}
	}
	myLo, myHi := t.ownedSets(slot)
	ownStamp := t.oldestStamp(myLo, myHi)
	for _, nb := range neighbours {
		if t.shareWith[slot]&(1<<uint(nb)) != 0 {
			continue
		}
		lo, hi := t.ownedSets(nb)
		if lo == myLo && hi == myHi {
			continue // set folding: neighbour aliases our own sets
		}
		if t.oldestStamp(lo, hi) >= ownStamp {
			continue // neighbour is at least as busy: do not steal
		}
		// Counter ablation: require threshold overflow events before
		// sharing activates.
		if th := t.opt.ShareCounterThreshold; th > 0 {
			t.shareCount[slot]++
			if t.shareCount[slot] < th {
				return false
			}
		}
		t.shareWith[slot] |= 1 << uint(nb)
		t.stats.FlagSets++
		return true
	}
	return false
}

// oldestStamp returns the minimum LRU stamp in sets [lo,hi); empty ways
// report stamp 0.
func (t *TLB) oldestStamp(lo, hi int) uint64 {
	best := ^uint64(0)
	for si := lo; si < hi; si++ {
		for w := range t.sets[si] {
			e := &t.sets[si][w]
			if !e.Valid {
				return 0
			}
			if e.Stamp < best {
				best = e.Stamp
			}
		}
	}
	return best
}

// victim returns the way to evict among the given sets. A dead-aware
// mechanism's predicted-dead entries are preferred victims (oldest first,
// with the replacement policy's tie-break); otherwise — and always for
// base — the configured replacement policy decides.
func (t *TLB) victim(sets []int) (setIdx, wayIdx int) {
	if t.deadAware {
		best := ^uint64(0)
		found := false
		for _, si := range sets {
			for w := range t.sets[si] {
				e := &t.sets[si][w]
				if !e.Valid || !t.mech.Dead(e, t.entryIndex(si, w)) {
					continue
				}
				if e.Stamp <= best {
					best = e.Stamp
					setIdx, wayIdx = si, w
					found = true
				}
			}
		}
		if found {
			return setIdx, wayIdx
		}
	}
	return t.lruVictim(sets)
}

// lruVictim returns the victim way among the given sets under the
// configured replacement policy.
func (t *TLB) lruVictim(sets []int) (setIdx, wayIdx int) {
	if t.opt.Replacement == arch.ReplaceRandom {
		// Deterministic xorshift over the probe clock.
		x := t.clock
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		n := uint64(len(sets) * t.cfg.Assoc)
		pick := int(x % n)
		return sets[pick/t.cfg.Assoc], pick % t.cfg.Assoc
	}
	best := ^uint64(0)
	for _, si := range sets {
		for w := range t.sets[si] {
			e := &t.sets[si][w]
			key := e.Stamp
			if t.opt.Replacement == arch.ReplaceFIFO {
				key = e.Filled
			}
			if key <= best {
				best = key
				setIdx, wayIdx = si, w
			}
		}
	}
	return setIdx, wayIdx
}

// OnTBFinish is called when the TB occupying slot completes: its sharing
// flag is reset, as are the flags of TBs that were sharing into its sets.
// Contents are kept (no flush) for potential inter-TB reuse.
func (t *TLB) OnTBFinish(slot int) {
	if slot < 0 || slot >= t.numSlots {
		return
	}
	if t.shareWith[slot] != 0 {
		t.stats.FlagResets++
	}
	t.shareWith[slot] = 0
	t.shareCount[slot] = 0
	for o := 0; o < t.numSlots; o++ {
		if t.shareWith[o]&(1<<uint(slot)) != 0 {
			t.shareWith[o] &^= 1 << uint(slot)
			t.stats.FlagResets++
		}
	}
}

// SharingActive reports whether slot currently shares into any neighbour
// (test/diagnostic helper).
func (t *TLB) SharingActive(slot int) bool {
	return slot >= 0 && slot < t.numSlots && t.shareWith[slot] != 0
}

// Flush invalidates all entries (used between kernels in tests; the design
// itself never flushes on TB completion).
func (t *TLB) Flush() {
	for si := range t.sets {
		for w := range t.sets[si] {
			t.sets[si][w] = tlbmech.Entry{}
		}
	}
	t.mech.OnFlush()
}

// Occupancy returns the number of valid entries (coalesced, sub-entry, and
// large-reach entries count once regardless of coverage).
func (t *TLB) Occupancy() int {
	n := 0
	for si := range t.sets {
		for w := range t.sets[si] {
			if t.sets[si][w].Valid {
				n++
			}
		}
	}
	return n
}

// Translations enumerates every translation currently held, including the
// multiple (tenant, page) pairs a coalesced, sub-entry, or large-reach
// record covers (test/diagnostic helper).
func (t *TLB) Translations(yield func(asid vm.ASID, vpn vm.VPN, ppn vm.PPN)) {
	for si := range t.sets {
		for w := range t.sets[si] {
			e := &t.sets[si][w]
			if e.Valid {
				t.mech.Translations(e, t.entryIndex(si, w), yield)
			}
		}
	}
}
