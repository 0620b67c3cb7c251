package experiments

import (
	"context"
	"fmt"

	"gputlb/internal/metrics"
	"gputlb/internal/multi"
	"gputlb/internal/parallel"
	"gputlb/internal/sched"
	"gputlb/internal/sim"
)

// --------------------------------------------------- multi-tenant co-run grid

// MultiTLBModes is the L2 TLB tenancy axis of the co-run grid.
var MultiTLBModes = []multi.TLBMode{multi.TLBSharedMode, multi.TLBStaticMode, multi.TLBDynamicMode, multi.TLBControllerMode}

// MultiSMPolicies is the SM assignment axis of the co-run grid.
var MultiSMPolicies = []sched.SMAssignment{sched.AssignSpatial, sched.AssignInterleaved, sched.AssignShared}

// MultiPairs returns the unordered benchmark pairs of the co-run grid, in
// input order: (0,1), (0,2), ..., (1,2), ...
func MultiPairs(benches []string) [][2]string {
	var pairs [][2]string
	for i := 0; i < len(benches); i++ {
		for j := i + 1; j < len(benches); j++ {
			pairs = append(pairs, [2]string{benches[i], benches[j]})
		}
	}
	return pairs
}

// MultiRow is one co-run cell: a workload pair under one (L2 TLB mode, SM
// assignment) point, with the solo references the weighted speedup divides
// by.
type MultiRow struct {
	Benches  [2]string
	TLBMode  string
	SMPolicy string
	// Tenants holds the per-tenant co-run results, in Benches order.
	Tenants []sim.TenantResult
	// SoloIPC is each tenant's IPC running alone on the whole GPU under the
	// same base configuration.
	SoloIPC [2]float64
	// WeightedSpeedup is sum_i IPC_i^co-run / IPC_i^solo; 2.0 would mean
	// zero interference for a pair.
	WeightedSpeedup float64
}

// MultiGrid runs the interference study: every benchmark pair under the
// full {TLB mode} x {SM assignment} grid, plus one solo reference run per
// benchmark. Cells run through the same bounded pool as the single-kernel
// sweeps and results are bit-identical at any parallelism level.
func MultiGrid(opt Options) ([]MultiRow, error) {
	specs, err := opt.specs()
	if err != nil {
		return nil, err
	}
	if len(specs) < 2 {
		return nil, fmt.Errorf("experiments: co-run grid needs at least 2 benchmarks, got %d", len(specs))
	}
	benches := make([]string, len(specs))
	for i, s := range specs {
		benches[i] = s.Name
	}
	pairs := MultiPairs(benches)

	// Solo references first: one baseline run per benchmark.
	cfg := BaselineConfig()
	var soloCells []simCell
	for _, s := range specs {
		soloCells = append(soloCells, simCell{s, "solo", opt.Params, cfg})
	}
	soloRes, err := opt.runCells(soloCells)
	if err != nil {
		return nil, err
	}
	soloIPC := make(map[string]float64, len(specs))
	for i, s := range specs {
		soloIPC[s.Name] = multi.SoloIPC(soloRes[i])
	}

	// The co-run cells: pair-major, then TLB mode, then SM policy.
	type multiCell struct {
		pair   [2]string
		mode   multi.TLBMode
		policy sched.SMAssignment
	}
	var cells []multiCell
	for _, p := range pairs {
		for _, mode := range MultiTLBModes {
			for _, pol := range MultiSMPolicies {
				cells = append(cells, multiCell{p, mode, pol})
			}
		}
	}
	mopt := multi.Options{Base: &cfg, Params: opt.Params}
	results, err := parallel.Map(opt.ctx(), opt.pool(), len(cells),
		func(_ context.Context, i int) (sim.Result, error) {
			c := cells[i]
			o := mopt
			o.TLBMode = c.mode
			o.SMPolicy = c.policy
			r, rerr := multi.CoRun(c.pair[:], o)
			if rerr != nil {
				return sim.Result{}, fmt.Errorf("%s+%s [%s/%s]: %w",
					c.pair[0], c.pair[1], c.mode, c.policy, rerr)
			}
			return r, nil
		})
	if err != nil {
		return nil, err
	}
	if opt.StatsDump != nil {
		rows := make([]StatsRow, len(cells))
		for i, c := range cells {
			rows[i] = StatsRow{
				Bench:  c.pair[0] + "+" + c.pair[1],
				Config: fmt.Sprintf("multi-%s-%s", c.mode, c.policy),
				Stats:  results[i].Stats,
			}
		}
		opt.StatsDump.add(rows...)
	}

	rows := make([]MultiRow, len(cells))
	for i, c := range cells {
		solo := [2]float64{soloIPC[c.pair[0]], soloIPC[c.pair[1]]}
		rows[i] = MultiRow{
			Benches:         c.pair,
			TLBMode:         c.mode.String(),
			SMPolicy:        c.policy.String(),
			Tenants:         results[i].Tenants,
			SoloIPC:         solo,
			WeightedSpeedup: multi.WeightedSpeedup(results[i].Tenants, solo[:]),
		}
	}
	return rows, nil
}

// stallFractions renders a tenant's translation-stall breakdown as
// "l1/l2/walk/fault" percentages of its total translation-stall cycles.
func stallFractions(t sim.TenantResult) string {
	total := t.StallTotal()
	if total == 0 {
		return "-"
	}
	pct := func(v int64) float64 { return float64(v) / float64(total) }
	return fmt.Sprintf("%.0f/%.0f/%.0f/%.0f%%",
		100*pct(t.StallL1), 100*pct(t.StallL2), 100*pct(t.StallWalk), 100*pct(t.StallFault))
}

// RenderMulti formats the co-run grid: per-tenant IPC against the solo
// reference, the weighted speedup, and each tenant's translation-stall
// breakdown (share of stall cycles resolved at L1/L2/walk/fault).
func RenderMulti(rows []MultiRow) string {
	t := metrics.NewTable("Pair", "L2 TLB", "SMs",
		"IPC A (solo)", "IPC B (solo)", "WS", "Stall A l1/l2/walk/fault", "Stall B")
	byMode := map[string][]float64{}
	for _, r := range rows {
		var a, b sim.TenantResult
		if len(r.Tenants) == 2 {
			a, b = r.Tenants[0], r.Tenants[1]
		}
		t.AddRow(
			r.Benches[0]+"+"+r.Benches[1], r.TLBMode, r.SMPolicy,
			fmt.Sprintf("%.3f (%.3f)", a.IPC(), r.SoloIPC[0]),
			fmt.Sprintf("%.3f (%.3f)", b.IPC(), r.SoloIPC[1]),
			fmt.Sprintf("%.3f", r.WeightedSpeedup),
			stallFractions(a), stallFractions(b))
		byMode[r.TLBMode] = append(byMode[r.TLBMode], r.WeightedSpeedup)
	}
	s := "Multi-tenant co-runs — weighted speedup (WS, 2.0 = no interference) per pair x L2 TLB mode x SM assignment\n" + t.String()
	g := metrics.NewTable("L2 TLB mode", "Geomean WS")
	for _, mode := range MultiTLBModes {
		if ws, ok := byMode[mode.String()]; ok {
			g.AddRow(mode.String(), fmtGeomean(ws))
		}
	}
	return s + "\nWeighted-speedup geomean by L2 TLB mode (tenant-aware partitioning vs fully shared)\n" + g.String()
}
