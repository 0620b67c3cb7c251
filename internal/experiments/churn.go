package experiments

import (
	"context"
	"fmt"

	"gputlb/internal/control"
	"gputlb/internal/metrics"
	"gputlb/internal/multi"
	"gputlb/internal/parallel"
	"gputlb/internal/sim"
)

// ------------------------------------------------------- tenant churn grid

// Fixed churn pattern of the grid: each pair's own benchmarks re-arrive
// mid-run, so every cell sees two departures-then-admissions plus the final
// drain where only the controller can reclaim the freed resources. The
// cycles sit inside the co-run of every Table II pair at the grid's default
// scale; arrivals landing after a cell finishes simply never run, which
// keeps the pattern valid (if pointless) at any scale.
const (
	// ChurnQueueCap bounds each cell's admission queue.
	ChurnQueueCap = 2
	// ChurnFirstArrival and ChurnSecondArrival are the fixed arrival cycles.
	ChurnFirstArrival  = 3000
	ChurnSecondArrival = 6000
)

// ChurnRow is one churn cell: a workload pair under one L2 TLB tenancy mode
// with the grid's fixed mid-run arrival pattern, spatial SM split.
type ChurnRow struct {
	Benches [2]string
	TLBMode string
	// Tenants holds all tenant results — the two initial tenants, then the
	// arrivals in arrival order (shed arrivals included, zero-valued).
	Tenants []sim.TenantResult
	// SoloIPC is each tenant's solo IPC, aligned with Tenants.
	SoloIPC []float64
	// WeightedSpeedup is sum_i IPC_i^co-run / IPC_i^solo over the tenants
	// that ran, each scored over its own elapsed cycles.
	WeightedSpeedup float64
	// Shed counts arrivals dropped on admission-queue overflow.
	Shed int
}

// churnSpec is the grid's fixed arrival pattern for one pair.
func churnSpec(pair [2]string) *multi.Churn {
	return &multi.Churn{
		QueueCap: ChurnQueueCap,
		Arrivals: []multi.Arrival{
			{Bench: pair[0], At: ChurnFirstArrival},
			{Bench: pair[1], At: ChurnSecondArrival},
		},
	}
}

// controlConfig resolves the Objective override into a controller
// configuration (nil means control.DefaultConfig() downstream).
func (o Options) controlConfig() (*control.Config, error) {
	if o.Objective == "" {
		return nil, nil
	}
	obj, err := control.ParseObjective(o.Objective)
	if err != nil {
		return nil, err
	}
	cc := control.DefaultConfig()
	cc.Objective = obj
	return &cc, nil
}

// ChurnGrid runs the tenant-churn study: every benchmark pair under the full
// L2 TLB tenancy axis (shared, static, dynamic, controller) with the fixed
// mid-run arrival pattern, spatial SM split. The controller cells are where
// online repartitioning can pay off: departures free SMs and L2 TLB sets
// that the static modes leave idle. Deterministic at any parallelism level.
func ChurnGrid(opt Options) ([]ChurnRow, error) {
	specs, err := opt.specs()
	if err != nil {
		return nil, err
	}
	if len(specs) < 2 {
		return nil, fmt.Errorf("experiments: churn grid needs at least 2 benchmarks, got %d", len(specs))
	}
	ctlCfg, err := opt.controlConfig()
	if err != nil {
		return nil, err
	}
	benches := make([]string, len(specs))
	for i, s := range specs {
		benches[i] = s.Name
	}
	pairs := MultiPairs(benches)

	// Solo references: one baseline run per benchmark, shared by initial
	// tenants and arrivals of the same benchmark.
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

	type churnCell struct {
		pair [2]string
		mode multi.TLBMode
	}
	var cells []churnCell
	for _, p := range pairs {
		for _, mode := range MultiTLBModes {
			cells = append(cells, churnCell{p, mode})
		}
	}
	mopt := multi.Options{
		Base:    &cfg,
		Params:  opt.Params,
		Control: ctlCfg,
	}
	results, err := parallel.Map(opt.ctx(), opt.pool(), len(cells),
		func(_ context.Context, i int) (sim.Result, error) {
			c := cells[i]
			o := mopt
			o.TLBMode = c.mode
			o.Churn = churnSpec(c.pair)
			r, rerr := multi.CoRun(c.pair[:], o)
			if rerr != nil {
				return sim.Result{}, fmt.Errorf("%s+%s churn [%s]: %w",
					c.pair[0], c.pair[1], c.mode, rerr)
			}
			return r, nil
		})
	if err != nil {
		return nil, err
	}
	if opt.StatsDump != nil {
		dump := make([]StatsRow, len(cells))
		for i, c := range cells {
			dump[i] = StatsRow{
				Bench:  c.pair[0] + "+" + c.pair[1],
				Config: fmt.Sprintf("churn-%s", c.mode),
				Stats:  results[i].Stats,
			}
		}
		opt.StatsDump.add(dump...)
	}

	rows := make([]ChurnRow, len(cells))
	for i, c := range cells {
		tenants := results[i].Tenants
		solo := make([]float64, len(tenants))
		shed := 0
		for j, tn := range tenants {
			solo[j] = soloIPC[tn.Name]
			if tn.Shed {
				shed++
			}
		}
		rows[i] = ChurnRow{
			Benches:         c.pair,
			TLBMode:         c.mode.String(),
			Tenants:         tenants,
			SoloIPC:         solo,
			WeightedSpeedup: multi.WeightedSpeedup(tenants, solo),
			Shed:            shed,
		}
	}
	return rows, nil
}

// RenderChurn formats the churn grid: per-cell weighted speedup over every
// tenant that ran (initial pair plus mid-run arrivals), then the geomean by
// L2 TLB tenancy mode — the online controller against the static policies.
func RenderChurn(rows []ChurnRow) string {
	t := metrics.NewTable("Pair", "L2 TLB", "Tenants ran", "Shed", "WS")
	byMode := map[string][]float64{}
	for _, r := range rows {
		ran := 0
		for _, tn := range r.Tenants {
			if !tn.Shed {
				ran++
			}
		}
		t.AddRow(
			r.Benches[0]+"+"+r.Benches[1], r.TLBMode,
			fmt.Sprintf("%d", ran), fmt.Sprintf("%d", r.Shed),
			fmt.Sprintf("%.3f", r.WeightedSpeedup))
		byMode[r.TLBMode] = append(byMode[r.TLBMode], r.WeightedSpeedup)
	}
	s := "Tenant churn — weighted speedup per pair x L2 TLB tenancy mode (spatial SMs, arrivals at " +
		fmt.Sprintf("%d and %d", ChurnFirstArrival, ChurnSecondArrival) + ")\n" + t.String()
	g := metrics.NewTable("L2 TLB mode", "Geomean WS")
	for _, mode := range MultiTLBModes {
		if ws, ok := byMode[mode.String()]; ok {
			g.AddRow(mode.String(), fmtGeomean(ws))
		}
	}
	return s + "\nWeighted-speedup geomean by mode (online controller vs static tenancy)\n" + g.String()
}
