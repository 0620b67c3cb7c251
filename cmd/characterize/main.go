// Command characterize regenerates the paper's motivation and
// characterization data: Table II (benchmarks), Figure 2 (baseline hit
// rates at two L1 TLB capacities), Figures 3 and 4 (inter-/intra-TB
// translation reuse), and Figures 5 and 6 (reuse-distance CDFs with and
// without inter-TB interference).
//
// Examples:
//
//	characterize              # everything
//	characterize -fig 4       # intra-TB reuse only
//	characterize -bench bfs,mvt -fig 5
//	characterize -daemon http://localhost:8372 -fig 2   # simulate on a gputlbd
//
// The -daemon URL may equally point at a fabric coordinator (gputlbd
// -coordinator): the /jobs API is identical and the distributed run's
// result artifact is byte-identical to a single daemon's.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"

	"gputlb"
	"gputlb/internal/cliutil"
	"gputlb/internal/jobs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("characterize: ")

	var (
		fig      = flag.String("fig", "all", "what to produce: table2 | 2 | 3 | 4 | 5 | 6 | all")
		bench    = flag.String("bench", "", "comma-separated benchmark subset (default: all)")
		scale    = flag.Float64("scale", 1.0, "workload scale factor")
		seed     = flag.Int64("seed", 1, "workload generation seed")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0), "max concurrent simulation cells (results are identical at any value)")
		jsonOut  = flag.Bool("json", false, "emit the row structs as JSON instead of tables")
		daemon   = flag.String("daemon", "", "submit the Figure 2 sweep to a gputlbd (or fabric coordinator — same API) at this URL instead of simulating in-process")
		out      cliutil.OutputFlags
	)
	out.Register(flag.CommandLine)
	flag.Parse()

	var benchmarks []string
	if *bench != "" {
		benchmarks = strings.Split(*bench, ",")
	}

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

	if *daemon != "" {
		// Only Figure 2 simulates; the reuse characterizations are trace
		// analyses that stay local.
		if *fig != "2" {
			log.Fatalf("-daemon runs the simulating figure only; use -fig 2 (got -fig %s)", *fig)
		}
		rows, err := fig2ViaDaemon(*daemon, benchmarks, *scale, *seed)
		if err != nil {
			log.Fatal(err)
		}
		emit("fig2", gputlb.RenderFig2(rows), rows)
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
	opt.StatsDump = out.NewStatsDump()
	opt.Tracer = out.NewTracer()

	want := func(name string) bool { return *fig == "all" || *fig == name }

	if want("table2") {
		rows, err := gputlb.Table2(opt)
		if err != nil {
			log.Fatal(err)
		}
		emit("table2", gputlb.RenderTable2(rows), rows)
	}
	if want("2") {
		rows, err := gputlb.Fig2(opt)
		if err != nil {
			log.Fatal(err)
		}
		emit("fig2", gputlb.RenderFig2(rows), rows)
	}
	if want("3") {
		rows, err := gputlb.Fig3(opt)
		if err != nil {
			log.Fatal(err)
		}
		emit("fig3", gputlb.RenderBins("Figure 3 — inter-TB translation reuse (fraction of TB pairs per bin)", rows), rows)
	}
	if want("4") {
		rows, err := gputlb.Fig4(opt)
		if err != nil {
			log.Fatal(err)
		}
		emit("fig4", gputlb.RenderBins("Figure 4 — intra-TB translation reuse (fraction of TBs per bin)", rows), rows)
	}
	if want("5") {
		rows, err := gputlb.Fig5(opt)
		if err != nil {
			log.Fatal(err)
		}
		emit("fig5", gputlb.RenderCDF("Figure 5 — intra-TB reuse distance CDF, TBs running concurrently", rows), rows)
	}
	if want("6") {
		rows, err := gputlb.Fig6(opt)
		if err != nil {
			log.Fatal(err)
		}
		emit("fig6", gputlb.RenderCDF("Figure 6 — intra-TB reuse distance CDF, one TB at a time", rows), rows)
	}

	if err := out.Export(opt.StatsDump, opt.Tracer); err != nil {
		log.Fatal(err)
	}
	if err := stopProfiles(); err != nil {
		log.Fatal(err)
	}
}

// fig2ViaDaemon runs the Figure 2 capacity sweep on a gputlbd and
// reconstructs the rows from the job's cell results.
func fig2ViaDaemon(baseURL string, benchmarks []string, scale float64, seed int64) ([]gputlb.Fig2Row, error) {
	c := &jobs.Client{BaseURL: baseURL}
	id, err := c.Submit(jobs.JobSpec{
		Name:       "characterize-fig2",
		Benchmarks: benchmarks,
		Configs:    []string{"64-entry", "256-entry"},
		Scale:      scale,
		Seed:       seed,
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "characterize: submitted as %s; polling...\n", id)
	st, err := c.Wait(context.Background(), id, 0)
	if err != nil {
		return nil, err
	}
	if st.State != jobs.StateDone {
		return nil, fmt.Errorf("job %s %s: %s", id, st.State, st.Error)
	}
	res, err := c.Result(id)
	if err != nil {
		return nil, err
	}
	var rows []gputlb.Fig2Row
	for i := 0; i+2 <= len(res.Cells); i += 2 {
		rows = append(rows, gputlb.Fig2Row{
			Bench:  res.Cells[i].Bench,
			Hit64:  res.Cells[i].L1TLBHitRate,
			Hit256: res.Cells[i+1].L1TLBHitRate,
		})
	}
	return rows, nil
}
