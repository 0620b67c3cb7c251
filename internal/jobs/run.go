package jobs

import (
	"fmt"

	"gputlb/internal/arch"
	"gputlb/internal/control"
	"gputlb/internal/experiments"
	"gputlb/internal/multi"
	"gputlb/internal/sim"
	"gputlb/internal/workloads"
)

// CellResult is the durable outcome of one simulation cell — the subset of
// sim.Result the figure reconstructions need, in a stable JSON shape. The
// journal stores one of these per completed cell.
type CellResult struct {
	Bench        string  `json:"bench"`
	Config       string  `json:"config"`
	Cycles       int64   `json:"cycles"`
	L1TLBHitRate float64 `json:"l1_tlb_hit_rate"`
	L2TLBHitRate float64 `json:"l2_tlb_hit_rate"`
	Walks        int64   `json:"walks"`
	Faults       int64   `json:"faults"`
	InstsIssued  int64   `json:"insts_issued"`
	// Tenants holds the per-tenant breakdown of a multi-tenant co-run cell
	// (CellSpec.Tenants order); nil for single-kernel cells, keeping their
	// serialized form identical to the pre-tenancy journal format.
	Tenants []sim.TenantResult `json:"tenants,omitempty"`
}

// Result is a completed job: its normalized spec and one CellResult per
// cell, in cell order. Serialized with stable field order and no
// run-varying fields (timings, retry counts live in Status instead), so a
// resumed job's result is byte-identical to an uninterrupted run's.
type Result struct {
	Name  string       `json:"name"`
	Spec  JobSpec      `json:"spec"`
	Cells []CellResult `json:"cells"`
}

// applyMechAlloc layers the cell's translation-mechanism and frame-
// allocation overrides onto a named configuration; empty fields keep the
// config's own values.
func applyMechAlloc(cfg *arch.Config, c CellSpec) {
	if c.Mech != "" {
		cfg.TLBMech = c.Mech
	}
	if c.Alloc != "" {
		cfg.AllocMode = c.Alloc
	}
}

// RunCell executes one cell in-process: builds (or reuses the cached)
// kernel trace for the benchmark and simulates it under the named
// configuration. Cells with a Tenants list run as multi-tenant co-runs.
// Deterministic for a given spec at any concurrency.
func RunCell(c CellSpec) (CellResult, error) {
	if len(c.Tenants) > 0 {
		return runMultiCell(c)
	}
	spec, ok := workloads.ByName(c.Bench)
	if !ok {
		return CellResult{}, fmt.Errorf("jobs: unknown benchmark %q", c.Bench)
	}
	nc, ok := namedConfigs[c.Config]
	if !ok {
		return CellResult{}, fmt.Errorf("jobs: unknown config %q", c.Config)
	}
	p := workloads.DefaultParams()
	p.Scale = c.Scale
	p.Seed = c.Seed
	if nc.pageShift != 0 {
		p.PageShift = nc.pageShift
	}
	if c.PageShift != 0 {
		p.PageShift = c.PageShift
	}
	k, as := workloads.Cached(spec, p)
	cfg := nc.build()
	applyMechAlloc(&cfg, c)
	r, err := sim.Run(cfg, k, as)
	if err != nil {
		return CellResult{}, fmt.Errorf("%s [%s]: %w", c.Bench, c.Config, err)
	}
	return CellResult{
		Bench:        c.Bench,
		Config:       c.Config,
		Cycles:       int64(r.Cycles),
		L1TLBHitRate: r.L1TLBHitRate,
		L2TLBHitRate: r.L2TLB.HitRate(),
		Walks:        r.Walks,
		Faults:       r.Faults,
		InstsIssued:  r.InstsIssued,
	}, nil
}

// runMultiCell executes a multi-tenant co-run cell: the tenant benchmarks
// run concurrently under the "multi-<tlb>-<sm>" configuration on the
// experiments' baseline hardware — the exact cell the in-process MultiGrid
// runs, so daemon results reconstruct identical figure rows.
func runMultiCell(c CellSpec) (CellResult, error) {
	mode, assign, ok := ParseMultiConfig(c.Config)
	if !ok {
		return CellResult{}, fmt.Errorf("jobs: unknown multi config %q", c.Config)
	}
	cfg := experiments.BaselineConfig()
	applyMechAlloc(&cfg, c)
	p := workloads.DefaultParams()
	p.Scale = c.Scale
	p.Seed = c.Seed
	if c.PageShift != 0 {
		p.PageShift = c.PageShift
	}
	opt := multi.Options{
		Base:     &cfg,
		Params:   p,
		SMPolicy: assign,
		TLBMode:  mode,
	}
	if len(c.Arrivals) > 0 {
		churn := &multi.Churn{QueueCap: c.QueueCap}
		for _, a := range c.Arrivals {
			churn.Arrivals = append(churn.Arrivals, multi.Arrival{Bench: a.Bench, At: a.At})
		}
		opt.Churn = churn
	}
	if c.Objective != "" {
		obj, err := control.ParseObjective(c.Objective)
		if err != nil {
			return CellResult{}, fmt.Errorf("%s [%s]: %w", c.Bench, c.Config, err)
		}
		cc := control.DefaultConfig()
		cc.Objective = obj
		opt.Control = &cc
	}
	r, err := multi.CoRun(c.Tenants, opt)
	if err != nil {
		return CellResult{}, fmt.Errorf("%s [%s]: %w", c.Bench, c.Config, err)
	}
	return CellResult{
		Bench:        c.Bench,
		Config:       c.Config,
		Cycles:       int64(r.Cycles),
		L1TLBHitRate: r.L1TLBHitRate,
		L2TLBHitRate: r.L2TLB.HitRate(),
		Walks:        r.Walks,
		Faults:       r.Faults,
		InstsIssued:  r.InstsIssued,
		Tenants:      r.Tenants,
	}, nil
}
