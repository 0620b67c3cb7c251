package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"gputlb"
	"gputlb/internal/experiments"
	"gputlb/internal/jobs"
)

// runViaDaemon submits the requested figure's grid to a gputlbd and
// reconstructs the figure rows from the returned cell results. The cells
// are deterministic, so the daemon path renders exactly what an
// in-process run would.
func runViaDaemon(baseURL, fig string, benchmarks []string, scale float64, seed int64, objective string, jsonOut bool) error {
	c := &jobs.Client{BaseURL: baseURL}
	want := func(name string) bool { return fig == "all" || fig == name }
	emit := func(name, table string, rows any) error {
		if jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			return enc.Encode(map[string]any{name: rows})
		}
		fmt.Println(table)
		return nil
	}

	// submit runs one grid remotely and returns the cell results grouped
	// per benchmark (configs-per-benchmark stride, matching Normalize's
	// benchmark-major expansion).
	submit := func(name string, configs []string) ([][]jobs.CellResult, error) {
		id, err := c.Submit(jobs.JobSpec{
			Name:       name,
			Benchmarks: benchmarks,
			Configs:    configs,
			Scale:      scale,
			Seed:       seed,
		})
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "evaluate: submitted %s as %s; polling...\n", name, id)
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
		stride := len(configs)
		grouped := make([][]jobs.CellResult, 0, len(res.Cells)/stride)
		for i := 0; i+stride <= len(res.Cells); i += stride {
			grouped = append(grouped, res.Cells[i:i+stride])
		}
		return grouped, nil
	}

	if fig == "multi" {
		return runMultiViaDaemon(c, benchmarks, scale, seed, emit)
	}
	if fig == "churn" {
		return runChurnViaDaemon(c, benchmarks, scale, seed, objective, emit)
	}
	if fig == "mech" {
		return runMechViaDaemon(c, benchmarks, scale, seed, emit)
	}
	supported := map[string]bool{"all": true, "10": true, "11": true, "12": true, "hugepage": true}
	if !supported[fig] {
		return fmt.Errorf("-fig %s is analysis-local; only 10, 11, 12, hugepage, multi, churn, mech (or all) run via -daemon", fig)
	}

	if want("10") || want("11") {
		grouped, err := submit("evaluate-fig10-11", []string{"baseline", "sched", "sched+part", "sched+part+share"})
		if err != nil {
			return err
		}
		rows := make([]gputlb.EvalRow, len(grouped))
		for i, g := range grouped {
			rows[i] = gputlb.EvalRow{
				Bench:       g[0].Bench,
				HitBase:     g[0].L1TLBHitRate,
				HitSched:    g[1].L1TLBHitRate,
				HitPart:     g[2].L1TLBHitRate,
				HitShare:    g[3].L1TLBHitRate,
				CyclesBase:  g[0].Cycles,
				CyclesSched: g[1].Cycles,
				CyclesPart:  g[2].Cycles,
				CyclesShare: g[3].Cycles,
			}
		}
		if want("10") {
			if err := emit("fig10", gputlb.RenderFig10(rows), rows); err != nil {
				return err
			}
		}
		if want("11") {
			if err := emit("fig11", gputlb.RenderFig11(rows), rows); err != nil {
				return err
			}
		}
	}
	if want("12") {
		grouped, err := submit("evaluate-fig12", []string{"compression", "ours+compression"})
		if err != nil {
			return err
		}
		rows := make([]gputlb.Fig12Row, len(grouped))
		for i, g := range grouped {
			rows[i] = gputlb.Fig12Row{
				Bench:           g[0].Bench,
				Speedup:         float64(g[0].Cycles) / float64(g[1].Cycles),
				HitCompress:     g[0].L1TLBHitRate,
				HitOursCompress: g[1].L1TLBHitRate,
			}
		}
		if err := emit("fig12", gputlb.RenderFig12(rows), rows); err != nil {
			return err
		}
	}
	if want("hugepage") {
		grouped, err := submit("evaluate-hugepage", []string{"baseline-4K", "baseline-2M", "ours-2M"})
		if err != nil {
			return err
		}
		rows := make([]gputlb.HugePageRow, len(grouped))
		for i, g := range grouped {
			rows[i] = gputlb.HugePageRow{
				Bench:         g[0].Bench,
				Hit4K:         g[0].L1TLBHitRate,
				Hit2M:         g[1].L1TLBHitRate,
				SpeedupOurs2M: float64(g[1].Cycles) / float64(g[2].Cycles),
			}
		}
		if err := emit("hugepage", gputlb.RenderHugePages(rows), rows); err != nil {
			return err
		}
	}
	return nil
}

// runMultiViaDaemon submits the co-run interference grid as one explicit
// cell list — a solo "baseline" cell per benchmark followed by every pair x
// multi-config cell in MultiGrid's order — and reconstructs the same
// MultiRow rows an in-process run would render. Both paths derive every
// figure number from the same integer counters, so the output is
// byte-identical.
func runMultiViaDaemon(c *jobs.Client, benchmarks []string, scale float64, seed int64, emit func(string, string, any) error) error {
	benches := benchmarks
	if len(benches) == 0 {
		benches = gputlb.WorkloadNames()
	}
	if len(benches) < 2 {
		return fmt.Errorf("-fig multi needs at least 2 benchmarks, got %d", len(benches))
	}
	pairs := gputlb.MultiPairs(benches)
	configs := jobs.MultiConfigNames()

	var cells []jobs.CellSpec
	for _, b := range benches {
		cells = append(cells, jobs.CellSpec{Bench: b, Config: "baseline", Scale: scale, Seed: seed})
	}
	for _, p := range pairs {
		for _, cfg := range configs {
			cells = append(cells, jobs.CellSpec{Tenants: p[:], Config: cfg, Scale: scale, Seed: seed})
		}
	}
	id, err := c.Submit(jobs.JobSpec{Name: "evaluate-multi", Cells: cells})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "evaluate: submitted evaluate-multi as %s; polling...\n", id)
	st, err := c.Wait(context.Background(), id, 0)
	if err != nil {
		return err
	}
	if st.State != jobs.StateDone {
		return fmt.Errorf("job %s %s: %s", id, st.State, st.Error)
	}
	res, err := c.Result(id)
	if err != nil {
		return err
	}
	if len(res.Cells) != len(cells) {
		return fmt.Errorf("job %s returned %d cells, want %d", id, len(res.Cells), len(cells))
	}

	soloIPC := make(map[string]float64, len(benches))
	for i, b := range benches {
		cell := res.Cells[i]
		if cell.Cycles > 0 {
			soloIPC[b] = float64(cell.InstsIssued) / float64(cell.Cycles)
		}
	}
	rows := make([]gputlb.MultiRow, 0, len(pairs)*len(configs))
	i := len(benches)
	for _, p := range pairs {
		for _, cfg := range configs {
			cell := res.Cells[i]
			i++
			mode, assign, ok := jobs.ParseMultiConfig(cfg)
			if !ok {
				return fmt.Errorf("internal error: %q is not a multi config", cfg)
			}
			solo := [2]float64{soloIPC[p[0]], soloIPC[p[1]]}
			rows = append(rows, gputlb.MultiRow{
				Benches:         p,
				TLBMode:         mode.String(),
				SMPolicy:        assign.String(),
				Tenants:         cell.Tenants,
				SoloIPC:         solo,
				WeightedSpeedup: gputlb.WeightedSpeedup(cell.Tenants, solo[:]),
			})
		}
	}
	return emit("multi", gputlb.RenderMulti(rows), rows)
}

// mechAllocFor returns the cell-level alloc override paired with a
// mechanism — the same pairing experiments.MechConfig applies in-process.
func mechAllocFor(mech string) string {
	if mech == "largereach" {
		return "contig"
	}
	return ""
}

// runMechViaDaemon submits the translation-mechanism study as one explicit
// cell list — a solo "baseline" cell per (benchmark, mechanism), then every
// pair x mechanism cell on the fully shared L2 TLB at the spatial SM split
// (MechMulti's fixed point) — and reconstructs the same MechRow/MechMultiRow
// rows an in-process run would render.
func runMechViaDaemon(c *jobs.Client, benchmarks []string, scale float64, seed int64, emit func(string, string, any) error) error {
	benches := benchmarks
	if len(benches) == 0 {
		benches = gputlb.WorkloadNames()
	}
	mechs := gputlb.MechNames()

	var cells []jobs.CellSpec
	for _, b := range benches {
		for _, m := range mechs {
			cells = append(cells, jobs.CellSpec{
				Bench: b, Config: "baseline", Mech: m, Alloc: mechAllocFor(m),
				Scale: scale, Seed: seed,
			})
		}
	}
	var pairs [][2]string
	if len(benches) >= 2 {
		pairs = gputlb.MultiPairs(benches)
		for _, p := range pairs {
			for _, m := range mechs {
				cells = append(cells, jobs.CellSpec{
					Tenants: p[:], Config: "multi-shared-spatial", Mech: m, Alloc: mechAllocFor(m),
					Scale: scale, Seed: seed,
				})
			}
		}
	}
	id, err := c.Submit(jobs.JobSpec{Name: "evaluate-mech", Cells: cells})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "evaluate: submitted evaluate-mech as %s; polling...\n", id)
	st, err := c.Wait(context.Background(), id, 0)
	if err != nil {
		return err
	}
	if st.State != jobs.StateDone {
		return fmt.Errorf("job %s %s: %s", id, st.State, st.Error)
	}
	res, err := c.Result(id)
	if err != nil {
		return err
	}
	if len(res.Cells) != len(cells) {
		return fmt.Errorf("job %s returned %d cells, want %d", id, len(res.Cells), len(cells))
	}

	rows := make([]gputlb.MechRow, 0, len(benches)*len(mechs))
	soloIPC := map[string]float64{}
	for i, b := range benches {
		base := res.Cells[i*len(mechs)] // mechs[0] is "base"
		for j, m := range mechs {
			cell := res.Cells[i*len(mechs)+j]
			norm := 0.0
			if base.Cycles > 0 {
				norm = float64(cell.Cycles) / float64(base.Cycles)
			}
			if cell.Cycles > 0 {
				soloIPC[b+"/"+m] = float64(cell.InstsIssued) / float64(cell.Cycles)
			}
			rows = append(rows, gputlb.MechRow{
				Bench: b, Mech: m, NormTime: norm,
				L1Hit: cell.L1TLBHitRate, L2Hit: cell.L2TLBHitRate,
				Cycles: cell.Cycles,
			})
		}
	}
	if err := emit("mech", gputlb.RenderMechEval(rows), rows); err != nil {
		return err
	}
	if len(pairs) == 0 {
		return nil
	}
	mrows := make([]gputlb.MechMultiRow, 0, len(pairs)*len(mechs))
	i := len(benches) * len(mechs)
	for _, p := range pairs {
		for _, m := range mechs {
			cell := res.Cells[i]
			i++
			solo := [2]float64{soloIPC[p[0]+"/"+m], soloIPC[p[1]+"/"+m]}
			mrows = append(mrows, gputlb.MechMultiRow{
				Benches: p, Mech: m,
				Tenants:         cell.Tenants,
				SoloIPC:         solo,
				WeightedSpeedup: gputlb.WeightedSpeedup(cell.Tenants, solo[:]),
			})
		}
	}
	return emit("mech-multi", gputlb.RenderMechMulti(mrows), mrows)
}

// churnConfigs are the daemon cell configs of the churn grid: the full L2
// TLB tenancy axis at the spatial SM split, in grid order.
func churnConfigs() []string {
	var out []string
	for _, cfg := range jobs.MultiConfigNames() {
		if strings.HasSuffix(cfg, "-spatial") {
			out = append(out, cfg)
		}
	}
	return out
}

// runChurnViaDaemon submits the tenant-churn grid as one explicit cell list —
// a solo "baseline" cell per benchmark, then every pair x tenancy-mode cell
// with the grid's fixed arrival pattern — and reconstructs the same ChurnRow
// rows an in-process run would render.
func runChurnViaDaemon(c *jobs.Client, benchmarks []string, scale float64, seed int64, objective string, emit func(string, string, any) error) error {
	benches := benchmarks
	if len(benches) == 0 {
		benches = gputlb.WorkloadNames()
	}
	if len(benches) < 2 {
		return fmt.Errorf("-fig churn needs at least 2 benchmarks, got %d", len(benches))
	}
	pairs := gputlb.MultiPairs(benches)
	configs := churnConfigs()

	var cells []jobs.CellSpec
	for _, b := range benches {
		cells = append(cells, jobs.CellSpec{Bench: b, Config: "baseline", Scale: scale, Seed: seed})
	}
	for _, p := range pairs {
		for _, cfg := range configs {
			cells = append(cells, jobs.CellSpec{
				Tenants:  p[:],
				Config:   cfg,
				Scale:    scale,
				Seed:     seed,
				QueueCap: experiments.ChurnQueueCap,
				Arrivals: []jobs.ArrivalSpec{
					{Bench: p[0], At: experiments.ChurnFirstArrival},
					{Bench: p[1], At: experiments.ChurnSecondArrival},
				},
				Objective: objective,
			})
		}
	}
	id, err := c.Submit(jobs.JobSpec{Name: "evaluate-churn", Cells: cells})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "evaluate: submitted evaluate-churn as %s; polling...\n", id)
	st, err := c.Wait(context.Background(), id, 0)
	if err != nil {
		return err
	}
	if st.State != jobs.StateDone {
		return fmt.Errorf("job %s %s: %s", id, st.State, st.Error)
	}
	res, err := c.Result(id)
	if err != nil {
		return err
	}
	if len(res.Cells) != len(cells) {
		return fmt.Errorf("job %s returned %d cells, want %d", id, len(res.Cells), len(cells))
	}

	soloIPC := make(map[string]float64, len(benches))
	for i, b := range benches {
		cell := res.Cells[i]
		if cell.Cycles > 0 {
			soloIPC[b] = float64(cell.InstsIssued) / float64(cell.Cycles)
		}
	}
	rows := make([]gputlb.ChurnRow, 0, len(pairs)*len(configs))
	i := len(benches)
	for _, p := range pairs {
		for _, cfg := range configs {
			cell := res.Cells[i]
			i++
			mode, _, ok := jobs.ParseMultiConfig(cfg)
			if !ok {
				return fmt.Errorf("internal error: %q is not a multi config", cfg)
			}
			solo := make([]float64, len(cell.Tenants))
			shed := 0
			for j, tn := range cell.Tenants {
				solo[j] = soloIPC[tn.Name]
				if tn.Shed {
					shed++
				}
			}
			rows = append(rows, gputlb.ChurnRow{
				Benches:         p,
				TLBMode:         mode.String(),
				Tenants:         cell.Tenants,
				SoloIPC:         solo,
				WeightedSpeedup: gputlb.WeightedSpeedup(cell.Tenants, solo),
				Shed:            shed,
			})
		}
	}
	return emit("churn", gputlb.RenderChurn(rows), rows)
}
