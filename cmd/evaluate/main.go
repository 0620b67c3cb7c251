// Command evaluate regenerates the paper's evaluation: Figures 10 and 11
// (hit rates and normalized execution time under the four configurations),
// Figure 12 (combination with TLB compression), the huge-page study, the
// multi-tenant co-run interference grid, and the design-space ablations
// (sharing counter/all-to-all, TB throttling, warp-granularity reuse).
//
// Examples:
//
//	evaluate                 # figures 10-12 and the huge-page study
//	evaluate -fig 11
//	evaluate -fig multi -bench bfs,atax
//	evaluate -fig ablations
//	evaluate -daemon http://localhost:8372 -fig 11   # run on a gputlbd
//
// The -daemon URL may point at any gputlbd server, default or
// -coordinator with remote workers: the /jobs API is the same, and the
// result artifact is byte-identical to an in-process run's.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"

	"gputlb"
	"gputlb/internal/cliutil"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("evaluate: ")

	var (
		fig       = flag.String("fig", "all", "what to produce: 10 | 11 | 12 | hugepage | multi | churn | mech | ablations | warp | balance | seeds | all")
		bench     = flag.String("bench", "", "comma-separated benchmark subset (default: all)")
		scale     = flag.Float64("scale", 1.0, "workload scale factor")
		seed      = flag.Int64("seed", 1, "workload generation seed")
		parallel  = flag.Int("parallel", runtime.GOMAXPROCS(0), "max concurrent simulation cells (results are identical at any value)")
		jsonOut   = flag.Bool("json", false, "emit the row structs as JSON instead of tables")
		objective = flag.String("objective", "", "partitioning-controller objective for controller cells: ws | fairness | maxmin (default ws)")
		daemon    = flag.String("daemon", "", "submit the sweep to a gputlbd (or fabric coordinator — same API) at this URL instead of running in-process (figs 10/11/12/hugepage/multi)")
		out       cliutil.OutputFlags
	)
	out.Register(flag.CommandLine)
	flag.Parse()

	var benchmarks []string
	if *bench != "" {
		benchmarks = strings.Split(*bench, ",")
	}

	if *daemon != "" {
		if err := runViaDaemon(*daemon, *fig, benchmarks, *scale, *seed, *objective, *jsonOut); err != nil {
			log.Fatal(err)
		}
		return
	}

	stopProfiles, err := out.Start()
	if err != nil {
		log.Fatal(err)
	}

	opt := gputlb.DefaultExperimentOptions()
	opt.Params.Scale = *scale
	opt.Params.Seed = *seed
	opt.Parallelism = *parallel
	opt.Benchmarks = benchmarks
	opt.Objective = *objective
	opt.StatsDump = out.NewStatsDump()
	opt.Tracer = out.NewTracer()

	want := func(name string) bool { return *fig == "all" || *fig == name }
	emit := func(name, table string, rows any) {
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(map[string]any{name: rows}); err != nil {
				log.Fatal(err)
			}
			return
		}
		fmt.Println(table)
	}

	if want("10") || want("11") {
		rows, err := gputlb.Eval(opt)
		if err != nil {
			log.Fatal(err)
		}
		if want("10") {
			emit("fig10", gputlb.RenderFig10(rows), rows)
		}
		if want("11") {
			emit("fig11", gputlb.RenderFig11(rows), rows)
		}
	}
	if want("12") {
		rows, err := gputlb.Fig12(opt)
		if err != nil {
			log.Fatal(err)
		}
		emit("fig12", gputlb.RenderFig12(rows), rows)
	}
	if want("hugepage") {
		rows, err := gputlb.HugePages(opt)
		if err != nil {
			log.Fatal(err)
		}
		emit("hugepage", gputlb.RenderHugePages(rows), rows)
	}
	if *fig == "multi" {
		// Not part of -fig all: the co-run grid is all benchmark pairs x
		// 12 configurations and dwarfs the single-kernel figures.
		rows, err := gputlb.MultiGrid(opt)
		if err != nil {
			log.Fatal(err)
		}
		emit("multi", gputlb.RenderMulti(rows), rows)
	}
	if *fig == "churn" {
		// Not part of -fig all for the same reason: all pairs x the L2 TLB
		// tenancy axis, each cell with mid-run tenant arrivals.
		rows, err := gputlb.ChurnGrid(opt)
		if err != nil {
			log.Fatal(err)
		}
		emit("churn", gputlb.RenderChurn(rows), rows)
	}
	if *fig == "mech" {
		// Not part of -fig all: the mechanism study spans benchmarks x
		// mechanisms solo plus every pair x mechanism co-run.
		rows, err := gputlb.MechEval(opt)
		if err != nil {
			log.Fatal(err)
		}
		emit("mech", gputlb.RenderMechEval(rows), rows)
		if len(benchmarks) != 1 {
			mrows, err := gputlb.MechMulti(opt)
			if err != nil {
				log.Fatal(err)
			}
			emit("mech-multi", gputlb.RenderMechMulti(mrows), mrows)
		}
	}
	if *fig == "seeds" {
		rows, err := gputlb.SeedSweep(opt, []int64{1, 2, 3})
		if err != nil {
			log.Fatal(err)
		}
		emit("seeds", gputlb.RenderSeedSweep(rows), rows)
	}
	if *fig == "ablations" {
		rows, err := gputlb.AblationSharing(opt, []int{4, 16})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(gputlb.RenderAblation(
			"Ablation — sharing activation: counter thresholds and all-to-all vs the 1-bit adjacent flag", rows))
		rows, err = gputlb.AblationThrottle(opt, []int{4, 8})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(gputlb.RenderAblation(
			"Ablation — TB throttling combined with the proposal (§IV-A extension)", rows))
		rows, err = gputlb.AblationWarpSched(opt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(gputlb.RenderAblation(
			"Ablation — warp schedulers under the proposal (vs GTO; 'translation-aware' is the paper's future work)", rows))
		rows, err = gputlb.AblationPWC(opt, 64)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(gputlb.RenderAblation(
			"Ablation — 64-entry page-walk cache (vs the same config without one)", rows))
		rows, err = gputlb.AblationReplacement(opt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(gputlb.RenderAblation(
			"Ablation — TLB replacement policies under the proposal (vs LRU)", rows))
	}
	if *fig == "balance" {
		rows, err := gputlb.SMBalance(opt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(gputlb.RenderSMBalance(rows))
	}
	if *fig == "warp" {
		rows, err := gputlb.WarpReuse(opt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(gputlb.RenderBins(
			"Future work — warp-granularity intra-warp translation reuse", rows))
	}

	if err := out.Export(opt.StatsDump, opt.Tracer); err != nil {
		log.Fatal(err)
	}
	if err := stopProfiles(); err != nil {
		log.Fatal(err)
	}
}
