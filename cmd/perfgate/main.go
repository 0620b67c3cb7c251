// Command perfgate measures the simulator's hot-path performance and
// maintains BENCH_sim.json, the repository's machine-readable perf ledger.
// It records two kinds of numbers:
//
//   - the full evaluate sweep (Figures 10/11: 10 benchmarks x 4 configs)
//     as wall-clock seconds and cells/sec, at sweep parallelism 1 and 8;
//   - the per-instruction simulation path (the golden-suite benchmarks under
//     the baseline config) as ns and heap allocations per issued warp
//     instruction.
//
// Modes:
//
//	perfgate -baseline     # pin the pre-optimization numbers (run once)
//	perfgate               # refresh the "current" section after a change
//	perfgate -check        # CI perf smoke: re-measure the per-instruction
//	                       # path only and fail on a >2x allocs/op regression
//	                       # or a >3x ns/inst blowup against the committed
//	                       # "current" numbers
//
// Wall-clock numbers are machine-dependent; the committed file records the
// trajectory on one reference machine. The CI gate keys primarily off
// allocs/op, which is deterministic, plus a deliberately wide (3x) ns/inst
// band that only catches structural hot-path regressions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"gputlb/internal/arch"
	"gputlb/internal/experiments"
	"gputlb/internal/sim"
	"gputlb/internal/workloads"
)

// perInstBenchmarks is the per-instruction measurement set: one benchmark
// per workload family, matching the golden-stats suite.
var perInstBenchmarks = []string{"bfs", "pagerank", "atax", "3dconv", "nw"}

// Sweep is one evaluate-sweep measurement.
type Sweep struct {
	Seconds     float64 `json:"seconds"`
	Cells       int     `json:"cells"`
	CellsPerSec float64 `json:"cells_per_sec"`
}

// PerInst is the per-instruction hot-path measurement.
type PerInst struct {
	Insts         int64   `json:"insts"`
	NsPerInst     float64 `json:"ns_per_inst"`
	AllocsPerInst float64 `json:"allocs_per_inst"`
	BytesPerInst  float64 `json:"bytes_per_inst"`
}

// Measurement is one full perfgate run.
type Measurement struct {
	Recorded      string  `json:"recorded"`
	GoMaxProcs    int     `json:"gomaxprocs"`
	EvalParallel1 Sweep   `json:"eval_sweep_parallel1"`
	EvalParallel8 Sweep   `json:"eval_sweep_parallel8"`
	PerInst       PerInst `json:"per_inst"`
}

// File is the BENCH_sim.json layout: the pinned pre-optimization baseline
// and the latest measurement, so the speedup is auditable from one file.
type File struct {
	Schema   int          `json:"schema"`
	Note     string       `json:"note"`
	Baseline *Measurement `json:"baseline,omitempty"`
	Current  *Measurement `json:"current,omitempty"`
}

const fileNote = "simulator perf ledger: refresh with `make bench-json`; " +
	"`perfgate -check` gates CI on allocs/op"

func main() {
	log.SetFlags(0)
	log.SetPrefix("perfgate: ")

	var (
		out       = flag.String("o", "BENCH_sim.json", "perf ledger file")
		baseline  = flag.Bool("baseline", false, "record this run as the pinned baseline")
		check     = flag.Bool("check", false, "re-measure allocs/op only and fail on >2x regression vs the committed current numbers")
		skipSweep = flag.Bool("skip-sweep", false, "skip the wall-clock sweep (per-instruction numbers only)")
		label     = flag.String("label", time.Now().UTC().Format("2006-01-02"), "label stored in the measurement's recorded field")
	)
	flag.Parse()

	if *check {
		if err := runCheck(*out); err != nil {
			log.Fatal(err)
		}
		return
	}

	f, err := readFile(*out)
	if err != nil {
		log.Fatal(err)
	}
	m := measure(*label, *skipSweep)
	if *baseline {
		f.Baseline = &m
	} else {
		f.Current = &m
	}
	if err := writeFile(*out, f); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("per-inst: %.1f ns/inst, %.4f allocs/inst, %.1f B/inst over %d insts\n",
		m.PerInst.NsPerInst, m.PerInst.AllocsPerInst, m.PerInst.BytesPerInst, m.PerInst.Insts)
	if !*skipSweep {
		fmt.Printf("eval sweep: %.2fs at parallelism 1 (%.2f cells/sec), %.2fs at parallelism 8\n",
			m.EvalParallel1.Seconds, m.EvalParallel1.CellsPerSec, m.EvalParallel8.Seconds)
	}
	if f.Baseline != nil && f.Current != nil && f.Baseline.EvalParallel1.Seconds > 0 && f.Current.EvalParallel1.Seconds > 0 {
		fmt.Printf("speedup vs baseline: %.2fx wall-clock (parallelism 1), %.1fx allocs/inst\n",
			f.Baseline.EvalParallel1.Seconds/f.Current.EvalParallel1.Seconds,
			ratio(f.Baseline.PerInst.AllocsPerInst, f.Current.PerInst.AllocsPerInst))
	}
}

func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

// runCheck is the CI perf smoke: a quick per-instruction re-measurement
// gated against the committed current allocs/op. Wall clocks are skipped
// (machine-dependent); allocation counts are deterministic.
func runCheck(path string) error {
	f, err := readFile(path)
	if err != nil {
		return err
	}
	if f.Current == nil {
		return fmt.Errorf("%s has no current measurement to gate against (run `make bench-json`)", path)
	}
	committed := f.Current.PerInst.AllocsPerInst
	got := measurePerInst()
	// 2x the committed value, with a small absolute floor so a near-zero
	// committed value does not turn measurement noise into a CI failure.
	limit := 2*committed + 0.25
	fmt.Printf("allocs/inst: measured %.4f, committed %.4f, limit %.4f\n",
		got.AllocsPerInst, committed, limit)
	if got.AllocsPerInst > limit {
		return fmt.Errorf("allocs/op regression: %.4f allocs/inst exceeds %.4f (2x committed %.4f); "+
			"fix the allocation or refresh BENCH_sim.json with `make bench-json` if intentional",
			got.AllocsPerInst, limit, committed)
	}
	// Wall-clock sanity gate: the controller-off per-instruction cost must
	// stay within a wide noise band of the committed reference. 3x absorbs
	// slow CI machines while still catching structural regressions — e.g.
	// churn or controller bookkeeping leaking into the hot path of runs
	// that never enable them.
	if committedNs := f.Current.PerInst.NsPerInst; committedNs > 0 {
		nsLimit := 3 * committedNs
		fmt.Printf("ns/inst: measured %.1f, committed %.1f, limit %.1f\n",
			got.NsPerInst, committedNs, nsLimit)
		if got.NsPerInst > nsLimit {
			return fmt.Errorf("per-inst time regression: %.1f ns/inst exceeds %.1f (3x committed %.1f); "+
				"fix the hot path or refresh BENCH_sim.json with `make bench-json` if intentional",
				got.NsPerInst, nsLimit, committedNs)
		}
	}
	fmt.Println("perf gate OK")
	return nil
}

func measure(label string, skipSweep bool) Measurement {
	m := Measurement{
		Recorded:   label,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		PerInst:    measurePerInst(),
	}
	if !skipSweep {
		m.EvalParallel1 = measureEval(1)
		m.EvalParallel8 = measureEval(8)
	}
	return m
}

func measureEval(parallelism int) Sweep {
	workloads.ClearTraceCache()
	opt := experiments.DefaultOptions()
	opt.Parallelism = parallelism
	start := time.Now()
	rows, err := experiments.Eval(opt)
	if err != nil {
		log.Fatal(err)
	}
	secs := time.Since(start).Seconds()
	cells := 4 * len(rows)
	return Sweep{Seconds: secs, Cells: cells, CellsPerSec: float64(cells) / secs}
}

// measurePerInst runs the golden-suite benchmarks under the baseline config
// and reports time and heap allocations per issued warp instruction. Kernel
// construction happens outside the measured window: this is the simulate
// hot path, not the workload generators.
func measurePerInst() PerInst {
	type cell struct {
		s *sim.Simulator
	}
	params := workloads.Params{PageShift: 12, Seed: 1, Scale: 0.2}
	cfg := arch.Default()
	var cells []cell
	for _, name := range perInstBenchmarks {
		spec, ok := workloads.ByName(name)
		if !ok {
			log.Fatalf("unknown benchmark %q", name)
		}
		k, as := workloads.Cached(spec, params)
		s, err := sim.New(cfg, k, as)
		if err != nil {
			log.Fatal(err)
		}
		cells = append(cells, cell{s})
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	var insts int64
	for _, c := range cells {
		r := c.s.Run()
		insts += r.InstsIssued
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	mallocs := after.Mallocs - before.Mallocs
	bytes := after.TotalAlloc - before.TotalAlloc
	return PerInst{
		Insts:         insts,
		NsPerInst:     float64(elapsed.Nanoseconds()) / float64(insts),
		AllocsPerInst: float64(mallocs) / float64(insts),
		BytesPerInst:  float64(bytes) / float64(insts),
	}
}

func readFile(path string) (File, error) {
	f := File{Schema: 1, Note: fileNote}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return f, nil
	}
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("parsing %s: %w", path, err)
	}
	f.Schema = 1
	f.Note = fileNote
	return f, nil
}

func writeFile(path string, f File) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
