package tlbmech

import (
	"testing"

	"gputlb/internal/stats"
	"gputlb/internal/vm"
)

func TestParseSpec(t *testing.T) {
	for _, name := range append([]string{""}, Known()...) {
		if _, err := ParseSpec(name); err != nil {
			t.Errorf("ParseSpec(%q) = %v, want nil", name, err)
		}
	}
	if s, err := ParseSpec(""); err != nil || s.Kind != "base" {
		t.Errorf("ParseSpec(\"\") = %+v, %v; want base", s, err)
	}
	if _, err := ParseSpec("quantum"); err == nil {
		t.Error("ParseSpec accepted an unknown mechanism")
	}
}

func TestBuildRejectsCompressionForNonBase(t *testing.T) {
	g := Geometry{Sets: 4, Assoc: 4, Compression: true, CompressionSpan: 8}
	if _, err := Build(Spec{Kind: "base"}, g); err != nil {
		t.Errorf("base with compression: %v", err)
	}
	for _, kind := range []string{"subentry", "deadblock", "largereach"} {
		if _, err := Build(Spec{Kind: kind}, g); err == nil {
			t.Errorf("%s with compression built without error", kind)
		}
	}
}

func build(t *testing.T, kind string) Mechanism {
	t.Helper()
	m, err := Build(Spec{Kind: kind}, Geometry{Sets: 4, Assoc: 4})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSubentrySharing: two tenants with the same VPN share one tag; each
// tenant sees only its own frame, and a third tenant misses entirely.
func TestSubentrySharing(t *testing.T) {
	m := build(t, "subentry")
	var e Entry
	m.Fill(&e, 0, 0, 7, m.Tag(7), 100, 1)
	if r := m.Absorb(&e, 0, 1, 7, 200, 2); r != AbsorbCoalesced {
		t.Fatalf("second tenant's sub-fill = %v, want AbsorbCoalesced", r)
	}
	if p, ok := m.Lookup(&e, 0, 0, 7); !ok || p != 100 {
		t.Errorf("tenant 0 lookup = %d,%v; want 100,true", p, ok)
	}
	if p, ok := m.Lookup(&e, 0, 1, 7); !ok || p != 200 {
		t.Errorf("tenant 1 lookup = %d,%v; want 200,true", p, ok)
	}
	if _, ok := m.Lookup(&e, 0, 2, 7); ok {
		t.Error("tenant 2 hit a tag it never filled")
	}
	var got []vm.PPN
	m.Translations(&e, 0, func(_ vm.ASID, _ vm.VPN, p vm.PPN) { got = append(got, p) })
	if len(got) != 2 || got[0] != 100 || got[1] != 200 {
		t.Errorf("translations = %v, want [100 200]", got)
	}
}

// TestDeadblockPrediction: an entry evicted twice without reuse trains its
// signature to the threshold; the next fill is predicted dead, and a hit on
// it promotes (counts a mispredict).
func TestDeadblockPrediction(t *testing.T) {
	m := build(t, "deadblock").(*deadblockMech)
	var e Entry
	for i := 0; i < DefaultDeadThreshold; i++ {
		m.Fill(&e, 0, 0, 42, 42, 9, 1)
		if m.Dead(&e, 0) {
			t.Fatalf("fill %d predicted dead before training completed", i)
		}
		m.OnEvict(&e, 0)
	}
	m.Fill(&e, 0, 0, 42, 42, 9, 1)
	if !m.Dead(&e, 0) {
		t.Fatal("trained signature not predicted dead")
	}
	if m.predictions != 1 {
		t.Errorf("predictions = %d, want 1", m.predictions)
	}
	if _, ok := m.Lookup(&e, 0, 0, 42); !ok {
		t.Fatal("lookup missed its own entry")
	}
	if m.Dead(&e, 0) {
		t.Error("hit entry still predicted dead (promote failed)")
	}
	if m.mispredicts != 1 {
		t.Errorf("mispredicts = %d, want 1", m.mispredicts)
	}
}

// TestLargereachRuns: adjacent contiguous inserts extend one entry; a
// non-contiguous insert in the same window is refused (AbsorbNo) so runs
// only ever cover translations actually observed with the run's delta.
func TestLargereachRuns(t *testing.T) {
	m := build(t, "largereach").(*largereachMech)
	var e Entry
	tag := m.Tag(130)
	if tag != 128 {
		t.Fatalf("Tag(130) = %d, want 128", tag)
	}
	m.Fill(&e, 0, 0, 130, tag, 1030, 1)
	if r := m.Absorb(&e, 0, 0, 131, 1031, 2); r != AbsorbCoalesced {
		t.Fatalf("adjacent contiguous insert = %v, want AbsorbCoalesced", r)
	}
	if r := m.Absorb(&e, 0, 0, 129, 1029, 3); r != AbsorbCoalesced {
		t.Fatalf("adjacent-below contiguous insert = %v, want AbsorbCoalesced", r)
	}
	if r := m.Absorb(&e, 0, 0, 140, 5555, 4); r != AbsorbNo {
		t.Fatalf("non-contiguous insert = %v, want AbsorbNo", r)
	}
	if r := m.Absorb(&e, 0, 0, 135, 1035, 5); r != AbsorbNo {
		t.Fatalf("matching-delta non-adjacent insert = %v, want AbsorbNo", r)
	}
	for vpn, want := range map[vm.VPN]vm.PPN{129: 1029, 130: 1030, 131: 1031} {
		if p, ok := m.Lookup(&e, 0, 0, vpn); !ok || p != want {
			t.Errorf("lookup %d = %d,%v; want %d,true", vpn, p, ok, want)
		}
	}
	if _, ok := m.Lookup(&e, 0, 0, 132); ok {
		t.Error("lookup hit a page outside the run")
	}
	n := 0
	m.Translations(&e, 0, func(_ vm.ASID, vpn vm.VPN, ppn vm.PPN) {
		n++
		if ppn != vm.PPN(vpn)+900 {
			t.Errorf("translation %d -> %d breaks the run delta", vpn, ppn)
		}
	})
	if n != 3 {
		t.Errorf("run covers %d pages, want 3", n)
	}
	m.OnEvict(&e, 0)
	if m.maxReach != 3 {
		t.Errorf("maxReach = %d, want 3", m.maxReach)
	}
}

// TestBaseRegistersNothing: the base mechanism must not add registry nodes —
// base snapshots are pinned byte-for-byte against the pre-mechanism goldens.
func TestBaseRegistersNothing(t *testing.T) {
	m := build(t, "base")
	r := stats.NewRegistry("tlb")
	m.RegisterStats(r)
	snap := r.Snapshot()
	if len(snap.Children) != 0 || len(snap.Counters) != 0 || len(snap.Gauges) != 0 || len(snap.Histograms) != 0 {
		t.Errorf("base registered children=%d counters=%d gauges=%d histograms=%d, want none",
			len(snap.Children), len(snap.Counters), len(snap.Gauges), len(snap.Histograms))
	}
}
