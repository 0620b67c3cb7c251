package experiments

import (
	"context"
	"fmt"

	"gputlb/internal/arch"
	"gputlb/internal/metrics"
	"gputlb/internal/multi"
	"gputlb/internal/parallel"
	"gputlb/internal/sim"
	"gputlb/internal/tlbmech"
)

// ------------------------------------------- translation-mechanism evaluation

// MechNames is the mechanism axis of the evaluation, in render order.
func MechNames() []string { return tlbmech.Known() }

// MechConfig returns the baseline configuration running the named
// translation mechanism. largereach is paired with the contiguity-preserving
// allocator it is designed for — reach beyond one page only exists when the
// allocator actually provides contiguous frames.
func MechConfig(name string) arch.Config {
	c := BaselineConfig()
	c.TLBMech = name
	if name == "largereach" {
		c.AllocMode = "contig"
	}
	return c
}

// MechRow is one solo cell of the mechanism evaluation.
type MechRow struct {
	Bench string
	Mech  string
	// NormTime is execution time normalized to mech=base on the same
	// benchmark (lower is better; 1.0 = baseline).
	NormTime float64
	L1Hit    float64
	L2Hit    float64
	Cycles   int64
}

// MechEval runs every benchmark solo under each translation mechanism and
// normalizes execution time to the base mechanism.
func MechEval(opt Options) ([]MechRow, error) {
	specs, err := opt.specs()
	if err != nil {
		return nil, err
	}
	mechs := MechNames()
	var cells []simCell
	for _, s := range specs {
		for _, m := range mechs {
			cells = append(cells, simCell{s, "mech-" + m, opt.Params, MechConfig(m)})
		}
	}
	res, err := opt.runCells(cells)
	if err != nil {
		return nil, err
	}
	rows := make([]MechRow, len(cells))
	for i, s := range specs {
		base := res[i*len(mechs)] // mechs[0] is "base"
		for j, m := range mechs {
			r := res[i*len(mechs)+j]
			norm := 0.0
			if base.Cycles > 0 {
				norm = float64(r.Cycles) / float64(base.Cycles)
			}
			rows[i*len(mechs)+j] = MechRow{
				Bench: s.Name, Mech: m, NormTime: norm,
				L1Hit: r.L1TLBHitRate, L2Hit: r.L2TLB.HitRate(),
				Cycles: int64(r.Cycles),
			}
		}
	}
	return rows, nil
}

// RenderMechEval formats the solo mechanism table plus the normalized-time
// geomean per mechanism.
func RenderMechEval(rows []MechRow) string {
	t := metrics.NewTable("Benchmark", "Mechanism", "Norm. time", "L1 hit", "L2 hit", "Cycles")
	byMech := map[string][]float64{}
	for _, r := range rows {
		t.AddRow(r.Bench, r.Mech, fmt.Sprintf("%.3f", r.NormTime),
			metrics.Pct(r.L1Hit), metrics.Pct(r.L2Hit), fmt.Sprint(r.Cycles))
		byMech[r.Mech] = append(byMech[r.Mech], r.NormTime)
	}
	s := "Translation mechanisms — solo execution time normalized to mech=base (lower is better)\n" + t.String()
	g := metrics.NewTable("Mechanism", "Geomean norm. time")
	for _, m := range MechNames() {
		if xs, ok := byMech[m]; ok {
			g.AddRow(m, fmtGeomean(xs))
		}
	}
	return s + "\nNormalized-time geomean by mechanism\n" + g.String()
}

// MechMultiRow is one co-run cell of the mechanism evaluation: a benchmark
// pair on a fully shared L2 TLB under one mechanism, with weighted speedup
// against same-mechanism solo references (so WS isolates the interference
// behaviour of the mechanism, not its solo speedup).
type MechMultiRow struct {
	Benches         [2]string
	Mech            string
	Tenants         []sim.TenantResult
	SoloIPC         [2]float64
	WeightedSpeedup float64
}

// MechMulti runs every benchmark pair under each mechanism on a fully
// shared L2 TLB — the capacity-contention regime sub-entry sharing targets.
func MechMulti(opt Options) ([]MechMultiRow, error) {
	specs, err := opt.specs()
	if err != nil {
		return nil, err
	}
	if len(specs) < 2 {
		return nil, fmt.Errorf("experiments: mechanism co-run grid needs at least 2 benchmarks, got %d", len(specs))
	}
	benches := make([]string, len(specs))
	for i, s := range specs {
		benches[i] = s.Name
	}
	pairs := MultiPairs(benches)
	mechs := MechNames()

	// Same-mechanism solo references.
	var soloCells []simCell
	for _, s := range specs {
		for _, m := range mechs {
			soloCells = append(soloCells, simCell{s, "mech-" + m + "-solo", opt.Params, MechConfig(m)})
		}
	}
	soloRes, err := opt.runCells(soloCells)
	if err != nil {
		return nil, err
	}
	soloIPC := map[string]float64{}
	for i, s := range specs {
		for j, m := range mechs {
			soloIPC[s.Name+"/"+m] = multi.SoloIPC(soloRes[i*len(mechs)+j])
		}
	}

	type mechCell struct {
		pair [2]string
		mech string
	}
	var cells []mechCell
	for _, p := range pairs {
		for _, m := range mechs {
			cells = append(cells, mechCell{p, m})
		}
	}
	results, err := parallel.Map(opt.ctx(), opt.pool(), len(cells),
		func(_ context.Context, i int) (sim.Result, error) {
			c := cells[i]
			cfg := MechConfig(c.mech)
			o := multi.Options{Base: &cfg, Params: opt.Params, TLBMode: multi.TLBSharedMode}
			r, rerr := multi.CoRun(c.pair[:], o)
			if rerr != nil {
				return sim.Result{}, fmt.Errorf("%s+%s [mech-%s]: %w", c.pair[0], c.pair[1], c.mech, rerr)
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
				Config: "mech-" + c.mech + "-multi",
				Stats:  results[i].Stats,
			}
		}
		opt.StatsDump.add(dump...)
	}

	rows := make([]MechMultiRow, len(cells))
	for i, c := range cells {
		solo := [2]float64{soloIPC[c.pair[0]+"/"+c.mech], soloIPC[c.pair[1]+"/"+c.mech]}
		rows[i] = MechMultiRow{
			Benches: c.pair, Mech: c.mech,
			Tenants:         results[i].Tenants,
			SoloIPC:         solo,
			WeightedSpeedup: multi.WeightedSpeedup(results[i].Tenants, solo[:]),
		}
	}
	return rows, nil
}

// RenderMechMulti formats the co-run mechanism table plus the weighted-
// speedup geomean per mechanism.
func RenderMechMulti(rows []MechMultiRow) string {
	t := metrics.NewTable("Pair", "Mechanism", "IPC A (solo)", "IPC B (solo)", "WS")
	byMech := map[string][]float64{}
	for _, r := range rows {
		var a, b sim.TenantResult
		if len(r.Tenants) == 2 {
			a, b = r.Tenants[0], r.Tenants[1]
		}
		t.AddRow(r.Benches[0]+"+"+r.Benches[1], r.Mech,
			fmt.Sprintf("%.3f (%.3f)", a.IPC(), r.SoloIPC[0]),
			fmt.Sprintf("%.3f (%.3f)", b.IPC(), r.SoloIPC[1]),
			fmt.Sprintf("%.3f", r.WeightedSpeedup))
		byMech[r.Mech] = append(byMech[r.Mech], r.WeightedSpeedup)
	}
	s := "Translation mechanisms — co-runs on a fully shared L2 TLB (WS vs same-mechanism solo, 2.0 = no interference)\n" + t.String()
	g := metrics.NewTable("Mechanism", "Geomean WS")
	for _, m := range MechNames() {
		if ws, ok := byMech[m]; ok {
			g.AddRow(m, fmtGeomean(ws))
		}
	}
	return s + "\nWeighted-speedup geomean by mechanism\n" + g.String()
}
