package dram

import (
	"gputlb/internal/cache"
	"gputlb/internal/engine"
	"gputlb/internal/noc"
	"gputlb/internal/stats"
)

// Config parameterizes the DRAM model.
type Config struct {
	Partitions    int
	BanksPerPart  int
	RowBytes      int // row-buffer size
	RowHitCycles  int // column access on an open row
	RowMissCycles int // precharge + activate + column
	LineBytes     int
}

// DRAM is the banked memory system. Bank occupancy uses an
// order-insensitive window meter (the simulator discovers accesses out of
// timestamp order). All mutable state — bank meters, open-row registers,
// and the row-buffer counters — is per partition, so concurrent callers
// are safe as long as no two of them ever touch the same partition. Not
// safe for unpartitioned concurrent use.
type DRAM struct {
	cfg     Config
	meters  [][]noc.Meter // [partition][bank]
	openRow [][]int64     // [partition][bank], -1 = closed
	hits    []int64       // [partition]
	misses  []int64       // [partition]
}

// New builds the memory system.
func New(cfg Config) *DRAM {
	if cfg.Partitions < 1 || cfg.BanksPerPart < 1 {
		panic("dram: need at least one partition and bank")
	}
	if cfg.RowBytes < cfg.LineBytes {
		panic("dram: row smaller than a line")
	}
	d := &DRAM{cfg: cfg}
	d.meters = make([][]noc.Meter, cfg.Partitions)
	d.openRow = make([][]int64, cfg.Partitions)
	d.hits = make([]int64, cfg.Partitions)
	d.misses = make([]int64, cfg.Partitions)
	for p := range d.meters {
		d.meters[p] = make([]noc.Meter, cfg.BanksPerPart)
		d.openRow[p] = make([]int64, cfg.BanksPerPart)
		for b := range d.openRow[p] {
			d.openRow[p][b] = -1
		}
	}
	return d
}

// Partitions returns the partition count.
func (d *DRAM) Partitions() int { return d.cfg.Partitions }

// Partition maps a line to its memory partition (address-interleaved).
func (d *DRAM) Partition(line cache.LineAddr) int {
	return int(line % cache.LineAddr(d.cfg.Partitions))
}

// Access services one line read at cycle at and returns its completion
// time. The line's bank is derived from the partition-local address; the
// row is the line's position within the bank.
func (d *DRAM) Access(line cache.LineAddr, at engine.Cycle) engine.Cycle {
	part := d.Partition(line)
	local := uint64(line) / uint64(d.cfg.Partitions)
	linesPerRow := uint64(d.cfg.RowBytes / d.cfg.LineBytes)
	bank := int(local / linesPerRow % uint64(d.cfg.BanksPerPart))
	row := int64(local / linesPerRow / uint64(d.cfg.BanksPerPart))

	lat := engine.Cycle(d.cfg.RowMissCycles)
	if d.openRow[part][bank] == row {
		lat = engine.Cycle(d.cfg.RowHitCycles)
		d.hits[part]++
	} else {
		d.openRow[part][bank] = row
		d.misses[part]++
	}
	start := d.meters[part][bank].Reserve(at, int(lat))
	return start + lat
}

// RowHits returns open-row hits summed over all partitions.
func (d *DRAM) RowHits() int64 {
	var n int64
	for _, v := range d.hits {
		n += v
	}
	return n
}

// RowMisses returns the number of row activations summed over all
// partitions.
func (d *DRAM) RowMisses() int64 {
	var n int64
	for _, v := range d.misses {
		n += v
	}
	return n
}

// RegisterStats registers the row-buffer counters into r; values are read
// lazily at snapshot time.
func (d *DRAM) RegisterStats(r *stats.Registry) {
	r.CounterFunc("row_hits", d.RowHits)
	r.CounterFunc("row_misses", d.RowMisses)
	r.GaugeFunc("row_hit_rate", func() float64 {
		if total := d.RowHits() + d.RowMisses(); total > 0 {
			return float64(d.RowHits()) / float64(total)
		}
		return 0
	})
}
