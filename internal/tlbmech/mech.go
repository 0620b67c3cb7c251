package tlbmech

import (
	"fmt"

	"gputlb/internal/stats"
	"gputlb/internal/vm"
)

// Entry is the universal TLB entry record every mechanism shares. The
// fixed part stays small on purpose — the probe loop walks whole sets and
// its cache footprint is the hot-path cost — so mechanism-specific payload
// (sub-entry frame slots, run bounds, dead flags) lives in side tables the
// mechanism indexes by the entry's global index (set*assoc+way).
type Entry struct {
	Valid bool
	// ASID is the owning tenant (for subentry: the first filler; sub-slot
	// state decides which tenants can actually hit).
	ASID vm.ASID
	// VPN is the tag: the full VPN, or the aligned group/window base for
	// compressed and large-reach entries.
	VPN vm.VPN
	// PPN is the payload: the PPN of VPN (for range entries, of the window
	// base under the run's delta — possibly wrapped; only PPN+offset is
	// meaningful).
	PPN vm.PPN
	// Mask is the base mechanism's compressed-group presence bitmap.
	Mask uint64
	// Stamp is the LRU timestamp, Filled the FIFO insertion timestamp.
	Stamp  uint64
	Filled uint64
}

// AbsorbResult says what Absorb did with an insert that reached an entry
// with a matching tag.
type AbsorbResult int

const (
	// AbsorbNo means the entry could not take the translation (ASID or
	// delta mismatch); the caller keeps scanning and eventually fills a new
	// entry.
	AbsorbNo AbsorbResult = iota
	// AbsorbRefreshed means the translation was already covered; the entry
	// was refreshed in place.
	AbsorbRefreshed
	// AbsorbCoalesced means the entry newly covers one more page (counted
	// in the TLB's Coalesced stat).
	AbsorbCoalesced
)

// Mechanism is one pluggable translation-entry design. All hooks that take
// an *Entry also take the entry's global index idx = set*assoc+way, which
// mechanisms use to address their per-entry side tables. Callers guarantee
// the entry's tag already matches (e.Valid && e.VPN == Tag(vpn)) before
// calling Lookup, Peek, or Absorb. Mechanisms are single-goroutine,
// like the TLBs that own them.
type Mechanism interface {
	// Name returns the mechanism's registry name ("base", "subentry", ...).
	Name() string
	// Attach tells the mechanism its TLB's geometry so it can size
	// per-entry side tables; called once before any other hook.
	Attach(sets, assoc int)
	// Tag maps a VPN to the tag an entry holding it carries.
	Tag(vpn vm.VPN) vm.VPN
	// Index maps a VPN to the value whose low bits select the set under
	// address indexing.
	Index(vpn vm.VPN) uint64
	// Lookup probes a tag-matching entry for (asid, vpn), returning the PPN
	// on a hit. It may train predictors / promote the entry; the caller
	// refreshes the LRU stamp on a hit.
	Lookup(e *Entry, idx int, asid vm.ASID, vpn vm.VPN) (vm.PPN, bool)
	// Peek is Lookup without any training or statistics side effects
	// (Contains probes must not disturb predictor state).
	Peek(e *Entry, idx int, asid vm.ASID, vpn vm.VPN) (vm.PPN, bool)
	// Absorb tries to fold vpn→ppn into a tag-matching entry (refresh,
	// coalesce, extend). clock is the TLB's current probe clock for stamp
	// refreshes.
	Absorb(e *Entry, idx int, asid vm.ASID, vpn vm.VPN, ppn vm.PPN, clock uint64) AbsorbResult
	// Fill overwrites e with a fresh entry for vpn→ppn. tag is Tag(vpn),
	// precomputed by the caller.
	Fill(e *Entry, idx int, asid vm.ASID, vpn, tag vm.VPN, ppn vm.PPN, clock uint64)
	// DeadAware reports whether the victim scan should ask Dead at all; it
	// is constant for a mechanism's lifetime, letting the base path skip
	// the scan entirely.
	DeadAware() bool
	// Dead reports whether a valid entry is predicted dead and should be
	// evicted before the replacement policy picks among live entries.
	Dead(e *Entry, idx int) bool
	// OnEvict notifies the mechanism a valid entry is being evicted
	// (predictor training, run-length accounting), before the entry is
	// reused.
	OnEvict(e *Entry, idx int)
	// Translations enumerates every (asid, vpn, ppn) translation a valid
	// entry currently holds — one per covered page (victim write-back and
	// diagnostics).
	Translations(e *Entry, idx int, yield func(asid vm.ASID, vpn vm.VPN, ppn vm.PPN))
	// OnFlush resets per-entry side state after the TLB invalidates all
	// entries.
	OnFlush()
	// RegisterStats registers mechanism-specific metrics under r (the
	// TLB's own registry node). base registers nothing, keeping base
	// snapshots byte-identical to the pre-mechanism TLB.
	RegisterStats(r *stats.Registry)
}

// Spec selects a mechanism by name with its tuning knobs. The zero value
// is the base mechanism.
type Spec struct {
	// Kind is the mechanism name: "" or "base", "subentry", "deadblock",
	// "largereach".
	Kind string
	// Span overrides the largereach window size in pages (power of two;
	// 0 = DefaultSpan). Ignored by other mechanisms.
	Span int
	// PredictorEntries overrides the deadblock predictor-table size (power
	// of two; 0 = DefaultPredictorEntries). Ignored by other mechanisms.
	PredictorEntries int
	// DeadThreshold overrides the saturating-counter value at which a fill
	// is predicted dead (0 = DefaultDeadThreshold). Ignored by other
	// mechanisms.
	DeadThreshold int
}

// Known returns the recognized mechanism names, in grid order.
func Known() []string { return []string{"base", "subentry", "deadblock", "largereach"} }

// ParseSpec maps a mechanism name ("" means base) to its Spec, rejecting
// unknown names — the validation entry point for configs and job specs.
func ParseSpec(name string) (Spec, error) {
	switch name {
	case "", "base":
		return Spec{Kind: "base"}, nil
	case "subentry", "deadblock", "largereach":
		return Spec{Kind: name}, nil
	}
	return Spec{}, fmt.Errorf("tlbmech: unknown mechanism %q (one of %v)", name, Known())
}

// Geometry carries the owning TLB's shape and base-mechanism options into
// Build.
type Geometry struct {
	// Sets and Assoc are the TLB's geometry; side tables are sized
	// Sets*Assoc.
	Sets, Assoc int
	// Compression enables the base mechanism's contiguity-coalescing
	// entries; CompressionSpan is the aligned group size in pages (already
	// defaulted and power-of-two-validated by the TLB).
	Compression     bool
	CompressionSpan int
}

// Build constructs the mechanism a Spec names, attached to the given
// geometry. Compression is a base-mechanism feature; combining it with any
// other mechanism is an error.
func Build(s Spec, g Geometry) (Mechanism, error) {
	if s.Kind != "" && s.Kind != "base" && g.Compression {
		return nil, fmt.Errorf("tlbmech: compression is a base-mechanism feature, not compatible with %q", s.Kind)
	}
	var m Mechanism
	switch s.Kind {
	case "", "base":
		m = newBase(g.Compression, g.CompressionSpan)
	case "subentry":
		m = newSubentry()
	case "deadblock":
		var err error
		m, err = newDeadblock(s.PredictorEntries, s.DeadThreshold)
		if err != nil {
			return nil, err
		}
	case "largereach":
		var err error
		m, err = newLargereach(s.Span)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("tlbmech: unknown mechanism %q (one of %v)", s.Kind, Known())
	}
	m.Attach(g.Sets, g.Assoc)
	return m, nil
}
