package tlbmech

import (
	"fmt"

	"gputlb/internal/stats"
	"gputlb/internal/vm"
)

// DefaultSpan is the largereach mechanism's aligned window size in pages.
const DefaultSpan = 64

// largereachMech implements contiguity-aware large-reach entries: one entry
// covers a contiguous VPN→PPN run [lo, hi) of offsets inside an aligned
// window of Span pages. Inserts whose delta continues an adjacent run
// extend it in place, so with a contiguity-preserving allocator
// (vm.AllocContig) one entry reaches up to Span pages. An entry never
// claims a page whose translation was not actually inserted with the run's
// delta — reach can only reflect contiguity the allocator really provided.
type largereachMech struct {
	span     vm.VPN
	log2span uint

	// lo/hi are the run bounds (offsets within the window) per entry,
	// indexed by the entry's global index. e.PPN stores the PPN the window
	// base would have under the run's delta (possibly wrapped; only
	// PPN+offset is meaningful).
	lo, hi []uint16

	reach      *stats.Histogram // run length at eviction
	fills      int64
	extensions int64 // inserts that grew an existing run
	reachHits  int64 // hits on entries covering more than one page
	maxReach   int64
}

func newLargereach(span int) (*largereachMech, error) {
	if span == 0 {
		span = DefaultSpan
	}
	if span < 2 || span&(span-1) != 0 {
		return nil, fmt.Errorf("tlbmech: largereach span %d not a power of two >= 2", span)
	}
	m := &largereachMech{span: vm.VPN(span), reach: stats.NewHistogram(0)}
	for s := span; s > 1; s >>= 1 {
		m.log2span++
	}
	return m, nil
}

func (m *largereachMech) Name() string    { return "largereach" }
func (m *largereachMech) DeadAware() bool { return false }

func (m *largereachMech) Attach(sets, assoc int) {
	n := sets * assoc
	m.lo = make([]uint16, n)
	m.hi = make([]uint16, n)
}

func (m *largereachMech) Tag(vpn vm.VPN) vm.VPN   { return vpn &^ (m.span - 1) }
func (m *largereachMech) Index(vpn vm.VPN) uint64 { return uint64(vpn) >> m.log2span }
func (m *largereachMech) Dead(*Entry, int) bool   { return false }

func (m *largereachMech) Lookup(e *Entry, idx int, asid vm.ASID, vpn vm.VPN) (vm.PPN, bool) {
	if e.ASID != asid {
		return 0, false
	}
	off := uint16(vpn - e.VPN)
	if off < m.lo[idx] || off >= m.hi[idx] {
		return 0, false
	}
	if m.hi[idx]-m.lo[idx] > 1 {
		m.reachHits++
	}
	return e.PPN + vm.PPN(off), true
}

func (m *largereachMech) Peek(e *Entry, idx int, asid vm.ASID, vpn vm.VPN) (vm.PPN, bool) {
	if e.ASID != asid {
		return 0, false
	}
	off := uint16(vpn - e.VPN)
	if off < m.lo[idx] || off >= m.hi[idx] {
		return 0, false
	}
	return e.PPN + vm.PPN(off), true
}

func (m *largereachMech) Absorb(e *Entry, idx int, asid vm.ASID, vpn vm.VPN, ppn vm.PPN, clock uint64) AbsorbResult {
	if e.ASID != asid {
		return AbsorbNo
	}
	off := uint16(vpn - e.VPN)
	if e.PPN+vm.PPN(off) != ppn {
		return AbsorbNo // delta mismatch: another run in this window
	}
	switch {
	case off >= m.lo[idx] && off < m.hi[idx]:
		e.Stamp = clock
		return AbsorbRefreshed
	case off == m.hi[idx]:
		m.hi[idx]++
	case m.lo[idx] > 0 && off == m.lo[idx]-1:
		m.lo[idx]--
	default:
		return AbsorbNo // matching delta but not adjacent: keep runs exact
	}
	m.extensions++
	e.Stamp = clock
	return AbsorbCoalesced
}

func (m *largereachMech) Fill(e *Entry, idx int, asid vm.ASID, vpn, tag vm.VPN, ppn vm.PPN, clock uint64) {
	off := uint16(vpn - tag)
	// Store the window-base PPN under the run's delta; unsigned wraparound
	// is fine because only PPN+offset within the run is ever read.
	*e = Entry{Valid: true, ASID: asid, VPN: tag, PPN: ppn - vm.PPN(off), Stamp: clock, Filled: clock}
	m.lo[idx] = off
	m.hi[idx] = off + 1
	m.fills++
}

func (m *largereachMech) OnEvict(e *Entry, idx int) {
	n := int64(m.hi[idx] - m.lo[idx])
	m.reach.Observe(n)
	if n > m.maxReach {
		m.maxReach = n
	}
}

func (m *largereachMech) Translations(e *Entry, idx int, yield func(vm.ASID, vm.VPN, vm.PPN)) {
	for off := m.lo[idx]; off < m.hi[idx]; off++ {
		yield(e.ASID, e.VPN+vm.VPN(off), e.PPN+vm.PPN(off))
	}
}

func (m *largereachMech) OnFlush() {} // Fill rewrites the run bounds

// Span returns the window size in pages (test/diagnostic helper).
func (m *largereachMech) Span() int { return int(m.span) }

func (m *largereachMech) RegisterStats(r *stats.Registry) {
	mr := r.Child("mech")
	mr.CounterFunc("fills", func() int64 { return m.fills })
	mr.CounterFunc("extensions", func() int64 { return m.extensions })
	mr.CounterFunc("reach_hits", func() int64 { return m.reachHits })
	mr.GaugeFunc("max_reach", func() float64 { return float64(m.maxReach) })
	mr.AttachHistogram("reach", m.reach)
}
