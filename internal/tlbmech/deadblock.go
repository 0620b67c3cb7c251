package tlbmech

import (
	"fmt"

	"gputlb/internal/stats"
	"gputlb/internal/vm"
)

// DefaultPredictorEntries is the dead-entry predictor's table size.
const DefaultPredictorEntries = 4096

// DefaultDeadThreshold is the saturating-counter value at which a fill is
// predicted dead on arrival.
const DefaultDeadThreshold = 2

// deadblockMech is a dead-entry predictor: a table of 2-bit saturating
// counters indexed by a VPN/ASID signature records whether past entries
// with that signature were evicted without reuse. A fill whose counter has
// reached the threshold is predicted dead and becomes a preferred eviction
// victim, protecting live entries from streaming translations. Entries are
// otherwise plain per-ASID (ASID, VPN)→PPN records, like base without
// compression.
type deadblockMech struct {
	table     []uint8 // 2-bit saturating dead counters
	tableMask uint32
	threshold uint8

	sig  []uint32 // per-entry predictor index, cached at fill
	dead []bool   // per-entry predicted-dead flag
	used []bool   // per-entry reused-since-fill flag

	predictions int64 // fills predicted dead
	correct     int64 // predicted-dead entries evicted without reuse
	mispredicts int64 // predicted-dead entries that hit again (promoted)
	deadEvicts  int64 // victims taken from the dead scan's preferred pool
}

func newDeadblock(entries, threshold int) (*deadblockMech, error) {
	if entries == 0 {
		entries = DefaultPredictorEntries
	}
	if entries < 2 || entries&(entries-1) != 0 {
		return nil, fmt.Errorf("tlbmech: deadblock predictor entries %d not a power of two", entries)
	}
	if threshold == 0 {
		threshold = DefaultDeadThreshold
	}
	if threshold < 1 || threshold > 3 {
		return nil, fmt.Errorf("tlbmech: deadblock threshold %d outside the 2-bit counter range [1,3]", threshold)
	}
	return &deadblockMech{
		table:     make([]uint8, entries),
		tableMask: uint32(entries - 1),
		threshold: uint8(threshold),
	}, nil
}

func (m *deadblockMech) Name() string    { return "deadblock" }
func (m *deadblockMech) DeadAware() bool { return true }

func (m *deadblockMech) Attach(sets, assoc int) {
	n := sets * assoc
	m.sig = make([]uint32, n)
	m.dead = make([]bool, n)
	m.used = make([]bool, n)
}

func (m *deadblockMech) Tag(vpn vm.VPN) vm.VPN   { return vpn }
func (m *deadblockMech) Index(vpn vm.VPN) uint64 { return uint64(vpn) }

// signature mixes (asid, vpn) into a predictor-table index.
func (m *deadblockMech) signature(asid vm.ASID, vpn vm.VPN) uint32 {
	h := uint64(vpn)*0x9E3779B97F4A7C15 + uint64(asid)*0xBF58476D1CE4E5B9
	return uint32(h>>32) & m.tableMask
}

func (m *deadblockMech) Lookup(e *Entry, idx int, asid vm.ASID, vpn vm.VPN) (vm.PPN, bool) {
	if e.ASID != asid {
		return 0, false
	}
	if m.dead[idx] {
		// Promote: the prediction was wrong, keep the entry live.
		m.dead[idx] = false
		m.mispredicts++
	}
	if !m.used[idx] {
		m.used[idx] = true
		// First reuse proves the signature live: train toward live so the
		// next fill with it is not predicted dead.
		if s := m.sig[idx]; m.table[s] > 0 {
			m.table[s]--
		}
	}
	return e.PPN, true
}

func (m *deadblockMech) Peek(e *Entry, _ int, asid vm.ASID, _ vm.VPN) (vm.PPN, bool) {
	if e.ASID != asid {
		return 0, false
	}
	return e.PPN, true
}

func (m *deadblockMech) Absorb(e *Entry, _ int, asid vm.ASID, _ vm.VPN, ppn vm.PPN, clock uint64) AbsorbResult {
	if e.ASID != asid {
		return AbsorbNo
	}
	e.PPN = ppn
	e.Stamp = clock
	return AbsorbRefreshed
}

func (m *deadblockMech) Fill(e *Entry, idx int, asid vm.ASID, vpn, tag vm.VPN, ppn vm.PPN, clock uint64) {
	*e = Entry{Valid: true, ASID: asid, VPN: tag, PPN: ppn, Stamp: clock, Filled: clock}
	s := m.signature(asid, vpn)
	m.sig[idx] = s
	m.used[idx] = false
	m.dead[idx] = m.table[s] >= m.threshold
	if m.dead[idx] {
		m.predictions++
	}
}

func (m *deadblockMech) Dead(_ *Entry, idx int) bool { return m.dead[idx] }

func (m *deadblockMech) OnEvict(e *Entry, idx int) {
	s := m.sig[idx]
	if m.used[idx] {
		if m.table[s] > 0 {
			m.table[s]--
		}
	} else if m.table[s] < 3 {
		m.table[s]++
	}
	if m.dead[idx] {
		m.deadEvicts++
		if !m.used[idx] {
			m.correct++
		}
	}
}

func (m *deadblockMech) Translations(e *Entry, _ int, yield func(vm.ASID, vm.VPN, vm.PPN)) {
	yield(e.ASID, e.VPN, e.PPN)
}

func (m *deadblockMech) OnFlush() {
	// Per-entry state is stale once entries are invalid; the predictor
	// table survives a flush — it is the mechanism's long-term memory.
	for i := range m.dead {
		m.dead[i] = false
		m.used[i] = false
	}
}

func (m *deadblockMech) RegisterStats(r *stats.Registry) {
	mr := r.Child("mech")
	mr.CounterFunc("predictions", func() int64 { return m.predictions })
	mr.CounterFunc("correct", func() int64 { return m.correct })
	mr.CounterFunc("mispredicts", func() int64 { return m.mispredicts })
	mr.CounterFunc("dead_evictions", func() int64 { return m.deadEvicts })
	mr.GaugeFunc("accuracy", func() float64 {
		if m.predictions == 0 {
			return 0
		}
		return float64(m.correct) / float64(m.predictions)
	})
}
