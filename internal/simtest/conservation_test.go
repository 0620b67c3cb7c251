package simtest

import (
	"context"
	"fmt"
	"testing"

	"gputlb/internal/arch"
	"gputlb/internal/cache"
	"gputlb/internal/multi"
	"gputlb/internal/parallel"
	"gputlb/internal/sched"
	"gputlb/internal/sim"
	"gputlb/internal/tlb"
	"gputlb/internal/workloads"
)

// conservationCell is one configuration the conservation laws are checked
// on.
type conservationCell struct {
	name  string
	build Build
}

// conservationCells are every Table II benchmark solo, one two-tenant
// co-run on a partitioned L2 TLB, and one churn cell with the controller
// attached.
func conservationCells(t *testing.T) []conservationCell {
	var cells []conservationCell
	for _, w := range workloads.All() {
		cells = append(cells, conservationCell{w.Name, soloBuild(t, w.Name, func(*arch.Config) {})})
	}
	return append(cells,
		conservationCell{"corun", multiBuild(t, multi.TLBDynamicMode, sched.AssignSpatial)},
		conservationCell{"churn", ctlBuild(t, true)},
	)
}

// runCell runs b once and returns its Result.
func runCell(t *testing.T, b Build) sim.Result {
	t.Helper()
	r, _, _, err := Run(b, false)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// workloadTotals returns the thread blocks and warp instructions the run's
// workload holds: the solo benchmark's kernel, or the kernels of every
// tenant that was not shed (a shed arrival's blocks never run).
func workloadTotals(t *testing.T, bench string, r sim.Result) (tbs int, insts int64) {
	t.Helper()
	names := []string{bench}
	if r.Tenants != nil {
		names = names[:0]
		for _, tr := range r.Tenants {
			if !tr.Shed {
				names = append(names, tr.Name)
			}
		}
	}
	for _, name := range names {
		k, _, ok := workloads.CachedByName(name, testParams())
		if !ok {
			t.Fatalf("unknown benchmark %q", name)
		}
		tbs += len(k.TBs)
		for _, tb := range k.TBs {
			for _, w := range tb.Warps {
				insts += int64(len(w.Insts))
			}
		}
	}
	return tbs, insts
}

func checkTLBBalance(t *testing.T, what string, s tlb.Stats) {
	t.Helper()
	if s.Hits+s.Misses != s.Accesses {
		t.Errorf("%s: hits %d + misses %d != accesses %d", what, s.Hits, s.Misses, s.Accesses)
	}
}

func checkCacheBalance(t *testing.T, what string, s cache.Stats) {
	t.Helper()
	if s.Hits+s.Misses != s.Accesses {
		t.Errorf("%s: hits %d + misses %d != accesses %d", what, s.Hits, s.Misses, s.Accesses)
	}
}

// TestModelConservationLaws checks laws every correct run obeys, derived
// from where the simulator counts each event:
//   - every TLB and cache lookup is exactly one hit or one miss;
//   - every thread block of the workload runs on exactly one SM, and every
//     warp instruction issues exactly once;
//   - a fault is always part of a walk, and a walk only follows an L1 TLB
//     miss.
func TestModelConservationLaws(t *testing.T) {
	for _, c := range conservationCells(t) {
		t.Run(c.name, func(t *testing.T) {
			r := runCell(t, c.build)
			for i, st := range r.L1TLBPerSM {
				checkTLBBalance(t, fmt.Sprintf("sm%02d L1 TLB", i), st)
			}
			checkTLBBalance(t, "L2 TLB", r.L2TLB)
			checkCacheBalance(t, "L1 cache", r.L1Cache)
			checkCacheBalance(t, "L2 cache", r.L2Cache)

			wantTBs, wantInsts := workloadTotals(t, c.name, r)
			var tbs int
			for _, n := range r.TBsPerSM {
				tbs += n
			}
			if tbs != wantTBs {
				t.Errorf("TBsPerSM sums to %d, workload has %d TBs", tbs, wantTBs)
			}
			if r.InstsIssued != wantInsts {
				t.Errorf("issued %d instructions, workload has %d", r.InstsIssued, wantInsts)
			}

			if r.Walks < r.Faults {
				t.Errorf("walks %d below faults %d", r.Walks, r.Faults)
			}
			if misses := r.L1TLBAccesses() - r.L1TLBHits(); r.Walks > misses {
				t.Errorf("walks %d exceed L1 TLB misses %d", r.Walks, misses)
			}
		})
	}
}

// histQuantile returns the upper bound of the power-of-two bucket holding
// the q-quantile of the translation-latency histogram.
func histQuantile(h [16]int64, q float64) int64 {
	var total int64
	for _, n := range h {
		total += n
	}
	if total == 0 {
		return 0
	}
	target := int64(q * float64(total))
	var seen int64
	for i, n := range h {
		seen += n
		if seen > target {
			return 1 << uint(i+1)
		}
	}
	return 1 << 16
}

// TestHistogramQuantilesInvariant: the translation-latency distribution's
// quantiles are identical whether the cell runs alone or beside copies of
// itself on the cell pool — a coarser, more interpretable restatement of
// byte-identity that would survive a registry format change.
func TestHistogramQuantilesInvariant(t *testing.T) {
	b := soloBuild(t, "bfs", func(*arch.Config) {})
	want := runCell(t, b)
	for _, w := range []int{2, 4} {
		got, err := parallel.Map(context.Background(), parallel.Options{Workers: w}, w,
			func(context.Context, int) (sim.Result, error) {
				r, _, _, err := Run(b, false)
				return r, err
			})
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range got {
			for _, q := range []float64{0.5, 0.9, 0.99} {
				if g, wq := histQuantile(r.TranslationLatency, q), histQuantile(want.TranslationLatency, q); g != wq {
					t.Errorf("workers=%d copy %d: p%.0f = %d, want %d", w, i, q*100, g, wq)
				}
			}
		}
	}
}

// TestCounterSumsBalance: counters kept by different components agree —
// every page request is one L1 TLB access and one histogram sample, every
// line request one L1 cache access, every L1 cache miss one L2 cache
// access; only L1 TLB misses reach the L2 TLB and only L2 TLB misses walk;
// and per-tenant counters add up to the machine totals.
func TestCounterSumsBalance(t *testing.T) {
	for _, c := range []conservationCell{
		{"bfs", soloBuild(t, "bfs", func(*arch.Config) {})},
		{"churn", ctlBuild(t, true)},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := runCell(t, c.build)
			if got := r.L1TLBAccesses(); got != r.PageRequests {
				t.Errorf("L1 TLB accesses %d != page requests %d", got, r.PageRequests)
			}
			var hist int64
			for _, n := range r.TranslationLatency {
				hist += n
			}
			if hist != r.PageRequests {
				t.Errorf("histogram count %d != page requests %d", hist, r.PageRequests)
			}
			if r.L1Cache.Accesses != r.LineRequests {
				t.Errorf("L1 cache accesses %d != line requests %d", r.L1Cache.Accesses, r.LineRequests)
			}
			if r.L2Cache.Accesses != r.L1Cache.Misses {
				t.Errorf("L2 cache accesses %d != L1 cache misses %d", r.L2Cache.Accesses, r.L1Cache.Misses)
			}
			if misses := r.L1TLBAccesses() - r.L1TLBHits(); r.L2TLB.Accesses > misses {
				t.Errorf("L2 TLB accesses %d exceed L1 TLB misses %d", r.L2TLB.Accesses, misses)
			}
			if r.Walks > r.L2TLB.Misses {
				t.Errorf("walks %d exceed L2 TLB misses %d", r.Walks, r.L2TLB.Misses)
			}
			if r.Tenants == nil {
				return
			}
			var sum sim.TenantResult
			for _, tr := range r.Tenants {
				sum.InstsIssued += tr.InstsIssued
				sum.PageRequests += tr.PageRequests
				sum.L1TLBHits += tr.L1TLBHits
				sum.L2TLBHits += tr.L2TLBHits
				sum.Walks += tr.Walks
				sum.Faults += tr.Faults
			}
			for _, f := range []struct {
				name        string
				tenant, all int64
			}{
				{"insts", sum.InstsIssued, r.InstsIssued},
				{"page requests", sum.PageRequests, r.PageRequests},
				{"L1 TLB hits", sum.L1TLBHits, r.L1TLBHits()},
				{"L2 TLB hits", sum.L2TLBHits, r.L2TLB.Hits},
				{"walks", sum.Walks, r.Walks},
				{"faults", sum.Faults, r.Faults},
			} {
				if f.tenant != f.all {
					t.Errorf("tenant %s sum to %d, machine total %d", f.name, f.tenant, f.all)
				}
			}
		})
	}
}
