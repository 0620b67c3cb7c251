package main

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"gputlb"
	"gputlb/internal/workloads"
)

// Workload sizes. The sweep runs at the paper-figure scale. The churn
// grid is smaller, so that a run holds several passes of a few seconds
// each, yet large enough that its simulated results vary little from seed
// to seed. The self-test's small mode shrinks every input to the minimum.
const (
	sweepScale = 1.0
	churnScale = 0.75
	smallScale = 0.05
)

var churnBenches = []string{"mis", "pagerank"}

// warmTraces fills the process trace cache with every benchmark of opt
// through the public Table II entry point, after dropping what an earlier
// set-up built. It returns the set-up's host seconds.
func (r *runner) warmTraces(opt gputlb.ExperimentOptions) (float64, error) {
	workloads.ClearTraceCache()
	runtime.GC()
	end := r.spans.begin("setup")
	defer end()
	t := time.Now()
	_, err := gputlb.Table2(opt)
	return since(t), err
}

// cacheCounter measures the trace cache's hits and evictions across a
// span of work that performed a known number of lookups.
type cacheCounter struct{ entries, evictions int64 }

func readCache() cacheCounter {
	return cacheCounter{int64(workloads.TraceCacheLen()), workloads.TraceCacheEvictions()}
}

// activity returns the hits and evictions since c, given the number of
// lookups made: every lookup that did not add an entry (net of evictions)
// hit.
func (c cacheCounter) activity(lookups int) (hits, evictions int64) {
	now := readCache()
	evictions = now.evictions - c.evictions
	builds := now.entries - c.entries + evictions
	return int64(lookups) - builds, evictions
}

// runSweep is the Figure 10/11 grid through gputlb.Eval on warm traces.
func runSweep(r *runner) {
	opt := gputlb.DefaultExperimentOptions()
	opt.Params.Scale, opt.Params.Seed = sweepScale, r.seed
	opt.Parallelism = r.workers
	benches := gputlb.WorkloadNames()
	if r.small {
		opt.Params.Scale = smallScale
		benches = []string{"bfs", "atax"}
	}
	opt.Benchmarks = benches

	// Three set-ups, not five: each builds all ten benchmarks' traces.
	var setups []float64
	for i := 0; i < r.setupReps(3); i++ {
		d, err := r.warmTraces(opt)
		if !r.op(err) {
			return
		}
		setups = append(setups, d)
	}
	r.setSetup(setups)

	cells := 4 * len(benches)
	var (
		firstRows []gputlb.EvalRow
		firstDump []gputlb.StatsRow
		hits, ev  int64
	)
	durs, wall := r.timed(1, r.seconds, func(i int) (float64, error) {
		dump := &gputlb.StatsDump{}
		o := opt
		o.StatsDump = dump
		before := readCache()
		t := time.Now()
		rows, err := gputlb.Eval(o)
		d := since(t)
		if err != nil {
			return 0, err
		}
		if i == 0 {
			firstRows, firstDump = rows, dump.Rows()
			hits, ev = before.activity(cells)
		} else {
			r.check(reflect.DeepEqual(rows, firstRows) && dumpDigest(dump.Rows()) == dumpDigest(firstDump),
				"sweep-fig11 pass %d: results differ from pass 0", i)
		}
		return d, nil
	})
	r.setPasses(durs, cells, wall)
	r.setPeakRSS("self")
	if len(durs) == 0 {
		return
	}
	for _, row := range firstDump {
		k, _, _ := workloads.CachedByName(row.Bench, opt.Params)
		r.checkKernelCell(row.Bench+"/"+row.Config, row.Stats, k)
	}

	var cycles int64
	var hitShare, norm, speedup []float64
	for _, row := range firstRows {
		cycles += row.CyclesBase + row.CyclesSched + row.CyclesPart + row.CyclesShare
		hitShare = append(hitShare, row.HitShare)
		norm = append(norm, row.NormShare())
		speedup = append(speedup, float64(row.CyclesBase)/float64(row.CyclesShare))
	}
	r.setSim(cycles, mean(hitShare), geomean(norm), mean(speedup))
	r.note("norm_time_share %.3f beside the paper's 0.875; the timing model is not validated against hardware", geomean(norm))

	if r.spans != nil {
		r.runLayers(layerInput{
			benches: benches, params: opt.Params, cfg: gputlb.ShareConfig(),
			trees: snapshots(firstDump), cacheHits: hits, cacheEvictions: ev,
			grid: func(workers int, progress func(int, int)) (int, error) {
				o := opt
				o.Parallelism, o.Progress = workers, progress
				_, err := gputlb.Eval(o)
				return cells, err
			},
		})
	}
}

// runChurn is the tenant-churn grid for one pair under every L2 TLB
// tenancy mode, the controller included.
func runChurn(r *runner) {
	opt := gputlb.DefaultExperimentOptions()
	opt.Params.Scale, opt.Params.Seed = churnScale, r.seed
	opt.Parallelism = r.workers
	opt.Benchmarks = churnBenches
	if r.small {
		opt.Params.Scale = smallScale
	}

	var setups []float64
	for i := 0; i < r.setupReps(5); i++ {
		d, err := r.warmTraces(opt)
		if !r.op(err) {
			return
		}
		setups = append(setups, d)
	}
	r.setSetup(setups)

	// Per pass: one solo reference per benchmark, then the pair under the
	// four tenancy modes. Each co-run looks up two tenants and two
	// arrivals in the trace cache.
	const modes = 4
	cells := len(churnBenches) + modes
	lookups := len(churnBenches) + modes*4
	var (
		firstRows []gputlb.ChurnRow
		firstDump []gputlb.StatsRow
		hits, ev  int64
	)
	durs, wall := r.timed(1, r.seconds, func(i int) (float64, error) {
		dump := &gputlb.StatsDump{}
		o := opt
		o.StatsDump = dump
		before := readCache()
		t := time.Now()
		rows, err := gputlb.ChurnGrid(o)
		d := since(t)
		if err != nil {
			return 0, err
		}
		if len(rows) != modes {
			return d, fmt.Errorf("corun-churn: %d rows, want %d", len(rows), modes)
		}
		if i == 0 {
			firstRows, firstDump = rows, dump.Rows()
			hits, ev = before.activity(lookups)
		} else {
			r.check(reflect.DeepEqual(rows, firstRows) && dumpDigest(dump.Rows()) == dumpDigest(firstDump),
				"corun-churn pass %d: results differ from pass 0", i)
		}
		return d, nil
	})
	r.setPasses(durs, cells, wall)
	r.setPeakRSS("self")
	if len(durs) == 0 {
		return
	}

	var cycles, sharedCycles, ctlCycles int64
	var ctlTree *gputlb.StatsSnapshot
	for _, row := range firstDump {
		c := counters(row.Stats)
		cycles += c["sim/cycles"]
		r.checkBalance(row.Bench+"/"+row.Config, c)
		switch row.Config {
		case "solo":
			k, _, _ := workloads.CachedByName(row.Bench, opt.Params)
			r.checkKernelCell(row.Bench+"/solo", row.Stats, k)
		case "churn-shared":
			sharedCycles = c["sim/cycles"]
		case "churn-controller":
			ctlCycles, ctlTree = c["sim/cycles"], row.Stats
		}
	}
	var ws float64
	for _, row := range firstRows {
		for _, tn := range row.Tenants {
			if tn.Shed {
				continue
			}
			k, _, _ := workloads.CachedByName(tn.Name, opt.Params)
			r.check(tn.InstsIssued == instCount(k), "corun-churn %s tenant %s: insts_issued %d, kernel has %d",
				row.TLBMode, tn.Name, tn.InstsIssued, instCount(k))
		}
		if row.TLBMode == "controller" {
			ws = row.WeightedSpeedup
		}
	}
	if !r.check(ctlTree != nil && sharedCycles > 0, "corun-churn: shared or controller cell missing from the stats dump") {
		return
	}
	r.setSim(cycles, l1HitRate(counters(ctlTree)), float64(ctlCycles)/float64(sharedCycles), ws)

	if r.spans != nil {
		shed := 0
		for _, row := range firstRows {
			shed += row.Shed
		}
		r.runLayers(layerInput{
			benches: churnBenches, params: opt.Params, cfg: gputlb.BaselineConfig(),
			trees: snapshots(firstDump), cacheHits: hits, cacheEvictions: ev, shed: shed,
			grid: func(workers int, progress func(int, int)) (int, error) {
				o := opt
				o.Parallelism, o.Progress = workers, progress
				_, err := gputlb.ChurnGrid(o)
				return cells, err
			},
		})
	}
}

// setSim records the pass's simulated results.
func (r *runner) setSim(cycles int64, l1Hit, norm, ws float64) {
	r.e2e["sim_cycles"] = float64(cycles)
	r.e2e["l1tlb_hit_rate"] = l1Hit
	r.e2e["norm_time_share"] = norm
	r.e2e["ws_controller"] = ws
}

func snapshots(rows []gputlb.StatsRow) []*gputlb.StatsSnapshot {
	out := make([]*gputlb.StatsSnapshot, len(rows))
	for i, row := range rows {
		out[i] = row.Stats
	}
	return out
}
