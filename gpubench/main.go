// Command gpubench is the repository benchmark. It drives the simulator from
// outside — through the public gputlb package, the gputlbd command-line
// flags and its HTTP job API — on three workloads generated from a seed, and
// prints one JSON line of metrics:
//
//	bash gpubench/run.sh --workload sweep-fig11 --seed 1 --seconds 28 --trace 0
//
// With -trace 0 the line holds the end-to-end metrics, measured with
// tracing off. With -trace 1 a separate run records spans around the calls
// into each layer and reports the per-layer metrics instead, plus the
// tracing overhead. Every run checks the program's outputs; a failed check
// counts in "failed". The workloads, metrics and the layer each per-layer
// metric belongs to are listed in this file and printed by -describe.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// metric is one reported quantity. Bound, for end-to-end metrics only, is
// the share of the parent commit's median by which the metric may worsen
// before a change counts as a regression.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists what a user of the simulator sees, in every workload's
// terms: a "pass" is the workload's unit of submitted work (one
// figure grid, one churn grid, one daemon job). Host times and simulated
// results are kept apart; the simulated ones are deterministic per seed.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"run_s", "s", "lower", 0.24},
	{"cells_per_s", "1/s", "higher", 0.24},
	{"jobs_per_s", "1/s", "higher", 0.24},
	{"job_p50_ms", "ms", "lower", 0.24},
	{"job_p90_ms", "ms", "lower", 0.24},
	{"peak_rss_mb", "MB", "lower", 0.2},
	{"sim_cycles", "cycles", "lower", 0.09},
	{"l1tlb_hit_rate", "ratio", "higher", 0.08},
	{"norm_time_share", "ratio", "lower", 0.09},
	{"ws_controller", "ratio", "higher", 0.12},
}

// layer is one per-layer metric with the end-to-end metric and workload it
// should move, and where the prediction is no change.
type layer struct {
	metric
	Moves  string `json:"moves"`
	Steady string `json:"steady"`
}

const (
	setupMoves  = "setup_s on sweep-fig11 and corun-churn"
	setupSteady = "job_p50_ms on service-jobs"
	hotMoves    = "run_s and cells_per_s on sweep-fig11 and corun-churn"
	hotSteady   = "job_p50_ms on service-jobs"
	countMoves  = "sim_cycles, l1tlb_hit_rate, norm_time_share on every workload"
	countSteady = "identical under any speed-only change"
	poolMoves   = "cells_per_s on sweep-fig11"
	poolSteady  = "setup_s on service-jobs"
	tenMoves    = "ws_controller and cells_per_s on corun-churn"
	tenSteady   = "run_s on sweep-fig11"
	svcMoves    = "job_p50_ms, job_p90_ms, jobs_per_s on service-jobs"
	svcSteady   = "run_s on sweep-fig11 and corun-churn"
)

var perLayer = []layer{
	{metric{"graph.generate_s", "s", "lower", 0}, setupMoves, setupSteady},
	{metric{"workloads.build_s", "s", "lower", 0}, setupMoves, setupSteady},
	{metric{"workloads.cache_hits", "count", "higher", 0}, "setup_s on sweep-fig11, cells_per_s on service-jobs", "run_s on sweep-fig11"},
	{metric{"workloads.cache_evictions", "count", "lower", 0}, "jobs_per_s on service-jobs", "run_s on sweep-fig11"},
	{metric{"trace.encode_s", "s", "lower", 0}, setupMoves, setupSteady},
	{metric{"trace.decode_s", "s", "lower", 0}, setupMoves, setupSteady},
	{metric{"trace.bytes", "bytes", "lower", 0}, setupMoves, setupSteady},

	{metric{"tlb.l1_probe_ns", "ns", "lower", 0}, hotMoves, hotSteady},
	{metric{"tlb.l1_probe_allocs", "allocs/op", "lower", 0}, hotMoves, hotSteady},
	{metric{"tlb.l2_probe_ns", "ns", "lower", 0}, hotMoves, hotSteady},
	{metric{"tlb.l2_probe_allocs", "allocs/op", "lower", 0}, hotMoves, hotSteady},
	{metric{"cache.access_ns", "ns", "lower", 0}, hotMoves, hotSteady},
	{metric{"cache.access_allocs", "allocs/op", "lower", 0}, hotMoves, hotSteady},
	{metric{"noc.traverse_ns", "ns", "lower", 0}, hotMoves, hotSteady},
	{metric{"noc.traverse_allocs", "allocs/op", "lower", 0}, hotMoves, hotSteady},
	{metric{"dram.access_ns", "ns", "lower", 0}, hotMoves, hotSteady},
	{metric{"dram.access_allocs", "allocs/op", "lower", 0}, hotMoves, hotSteady},
	{metric{"engine.schedule_pop_ns", "ns", "lower", 0}, hotMoves, hotSteady},
	{metric{"engine.schedule_pop_allocs", "allocs/op", "lower", 0}, hotMoves, hotSteady},
	{metric{"vm.touch_ns", "ns", "lower", 0}, hotMoves, hotSteady},
	{metric{"vm.touch_allocs", "allocs/op", "lower", 0}, hotMoves, hotSteady},
	{metric{"sim.new_s", "s", "lower", 0}, "run_s on sweep-fig11", hotSteady},
	{metric{"sim.ns_per_inst", "ns", "lower", 0}, hotMoves, hotSteady},
	{metric{"sim.allocs_per_inst", "allocs", "lower", 0}, hotMoves, hotSteady},
	{metric{"sim.bytes_per_inst", "bytes", "lower", 0}, hotMoves, hotSteady},

	{metric{"tlb.l1_hit_rate", "ratio", "higher", 0}, countMoves, countSteady},
	{metric{"tlb.l2_hit_rate", "ratio", "higher", 0}, countMoves, countSteady},
	{metric{"tlb.probe_sets", "count", "lower", 0}, countMoves, countSteady},
	{metric{"vm.walks", "count", "lower", 0}, countMoves, countSteady},
	{metric{"vm.faults", "count", "lower", 0}, countMoves, countSteady},
	{metric{"cache.l1_hit_rate", "ratio", "higher", 0}, countMoves, countSteady},
	{metric{"cache.l2_hit_rate", "ratio", "higher", 0}, countMoves, countSteady},
	{metric{"noc.packets", "count", "lower", 0}, countMoves, countSteady},
	{metric{"noc.stalls", "count", "lower", 0}, countMoves, countSteady},
	{metric{"dram.row_hits", "count", "higher", 0}, countMoves, countSteady},
	{metric{"dram.row_misses", "count", "lower", 0}, countMoves, countSteady},
	{metric{"sched.picks", "count", "higher", 0}, countMoves, countSteady},
	{metric{"sched.skips", "count", "lower", 0}, countMoves, countSteady},

	{metric{"parallel.cpu_util", "ratio", "higher", 0}, poolMoves, poolSteady},
	{metric{"parallel.tail_s", "s", "lower", 0}, poolMoves, poolSteady},
	{metric{"parallel.speedup", "x", "higher", 0}, poolMoves, poolSteady},

	{metric{"control.decisions", "count", "higher", 0}, tenMoves, tenSteady},
	{metric{"control.set_moves", "count", "lower", 0}, tenMoves, tenSteady},
	{metric{"control.sm_moves", "count", "lower", 0}, tenMoves, tenSteady},
	{metric{"multi.shed", "count", "lower", 0}, tenMoves, tenSteady},

	{metric{"jobs.submit_ms", "ms", "lower", 0}, svcMoves, svcSteady},
	{metric{"jobs.queue_wait_ms", "ms", "lower", 0}, svcMoves, svcSteady},
	{metric{"jobs.result_ms", "ms", "lower", 0}, svcMoves, svcSteady},
	{metric{"jobs.journal_append_ms", "ms", "lower", 0}, svcMoves, svcSteady},
	{metric{"jobs.runcell_ms", "ms", "lower", 0}, svcMoves, svcSteady},
	{metric{"jobs.encode_result_ms", "ms", "lower", 0}, svcMoves, svcSteady},
	{metric{"stats.snapshot_ms", "ms", "lower", 0}, svcMoves, svcSteady},
	{metric{"fabric.cellkey_us", "us", "lower", 0}, svcMoves, svcSteady},

	{metric{"bench.tracing_overhead", "ratio", "lower", 0}, "nothing: traced over untraced pass time", "every workload"},
}

// workload is one benchmark input. run performs the set-up, the timed
// passes and the output checks, filling the runner's metrics.
type workload struct {
	name string
	why  string
	run  func(r *runner)
}

var workloadList = []workload{
	{"sweep-fig11", "the Figure 10/11 grid, 10 benchmarks x 4 configs at scale 1 on warm traces: every benchmark family through the parallel pool", runSweep},
	{"corun-churn", "ChurnGrid for mis+pagerank: two ASIDs share a partitioned L2 TLB under all four tenancy modes; the only user of multi and control", runChurn},
	{"service-jobs", "closed loop of 8-cell jobs on a gputlbd over loopback HTTP: submit, journal fsync, polling and result fetch dominate", runService},
}

// heldOutSeed is a seed no tuning may use: a later gain claim must also
// hold on it.
const heldOutSeed = 90017

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds  = flag.Float64("seconds", 10, "length of the timed phase in seconds")
		trace    = flag.Int("trace", 0, "1 records spans and reports per-layer metrics instead of end-to-end ones")
		daemon   = flag.String("gputlbd", "", "path of the gputlbd binary the workloads start")
		describe = flag.Bool("describe", false, "print the workloads and metrics as JSON and exit")
	)
	flag.Parse()
	if *describe {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(description()); err != nil {
			fatalf("describe: %v", err)
		}
		return
	}
	w, ok := findWorkload(*name)
	if !ok {
		fatalf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *trace != 0 && *trace != 1 {
		fatalf("-trace must be 0 or 1, got %d", *trace)
	}
	if *seed <= 0 {
		fatalf("-seed must be positive, got %d", *seed)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	// Run from the root of a checkout: scratch files go under .bench_build.
	r, err := newRunner(w.name, ".", *daemon, *seed, *seconds, *trace == 1, false)
	if err != nil {
		fatalf("%v", err)
	}
	defer r.cleanup()
	w.run(r)
	out := r.result(*trace == 1)
	r.printHuman(out)
	line, err := json.Marshal(out)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "gpubench: "+format+"\n", args...)
	os.Exit(2)
}

func workloadNames() []string {
	names := make([]string, len(workloadList))
	for i, w := range workloadList {
		names[i] = w.name
	}
	return names
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloadList {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// value is one metric of the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// result assembles the run's result line from the metric set the mode
// reports; a metric the workload failed to produce counts as a failure.
func (r *runner) result(traced bool) result {
	defs, got := endToEnd, r.e2e
	if traced {
		defs, got = layerMetrics(), r.layer
	}
	out := result{Metrics: map[string]value{}}
	for _, m := range defs {
		v, ok := got[m.Name]
		if !r.check(ok && !math.IsNaN(v) && !math.IsInf(v, 0), "metric %s was not measured (%v)", m.Name, v) {
			v = 0
		}
		out.Metrics[m.Name] = value{v, m.Unit}
	}
	out.Attempted, out.Failed = r.attempted, r.failed
	out.Correct = r.failed == 0
	return out
}

func layerMetrics() []metric {
	out := make([]metric, len(perLayer))
	for i, l := range perLayer {
		out[i] = l.metric
	}
	return out
}

// printHuman prints the provenance, every metric with its unit, the
// failure ratio and any failed checks, ahead of the result line.
func (r *runner) printHuman(out result) {
	prov, _ := json.Marshal(r.provenance())
	fmt.Printf("provenance %s\n", prov)
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-28s %16.6g %s\n", n, out.Metrics[n].Value, out.Metrics[n].Unit)
	}
	fmt.Printf("%-28s %16.6g ratio (failed %d of %d attempted)\n", "fail_ratio",
		float64(out.Failed)/float64(out.Attempted), out.Failed, out.Attempted)
	if r.spans != nil {
		self := r.spans.selfTimes()
		spans := make([]string, 0, len(self))
		for n := range self {
			spans = append(spans, n)
		}
		sort.Slice(spans, func(i, j int) bool { return self[spans[i]] > self[spans[j]] })
		for _, n := range spans {
			fmt.Printf("span %-10s self %9.4f s\n", n, self[n])
		}
	}
	for _, n := range r.notes {
		fmt.Println("note:", n)
	}
	for _, p := range r.problems {
		fmt.Println("FAILED:", p)
	}
}

// description is what -describe prints.
func description() any {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	var ws []wl
	for _, w := range workloadList {
		ws = append(ws, wl{w.name, w.why})
	}
	return map[string]any{
		"workloads":     ws,
		"end_to_end":    endToEnd,
		"per_layer":     perLayer,
		"held_out_seed": heldOutSeed,
	}
}
