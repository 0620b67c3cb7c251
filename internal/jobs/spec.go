package jobs

import (
	"fmt"
	"sort"
	"strings"

	"gputlb/internal/arch"
	"gputlb/internal/control"
	"gputlb/internal/experiments"
	"gputlb/internal/multi"
	"gputlb/internal/sched"
	"gputlb/internal/tlbmech"
	"gputlb/internal/vm"
	"gputlb/internal/workloads"
)

// CellSpec identifies one simulation cell: a benchmark under a named
// configuration at a given workload scale and seed. A cell is a pure
// function of its spec — the property checkpoint/resume relies on.
type CellSpec struct {
	// Bench is a benchmark name from the Table II suite (workloads.All).
	// Multi-tenant cells may leave it empty; Normalize fills it with the
	// "+"-joined tenant list for display.
	Bench string `json:"bench"`
	// Config is a named configuration variant; see ConfigNames. Multi-tenant
	// cells use the "multi-<tlb>-<sm>" names (MultiConfigNames).
	Config string `json:"config"`
	// Tenants, when non-empty, makes this a multi-tenant co-run cell: the
	// listed benchmarks run concurrently (tenant i gets ASID i) under the
	// multi config named by Config. Requires at least two entries.
	Tenants []string `json:"tenants,omitempty"`
	// Scale multiplies problem sizes; 0 means 1.0 (experiment scale).
	Scale float64 `json:"scale,omitempty"`
	// Seed drives workload generation; 0 means 1.
	Seed int64 `json:"seed,omitempty"`
	// PageShift overrides the page size implied by Config (12 = 4KB,
	// 21 = 2MB). 0 keeps the config's default.
	PageShift uint `json:"page_shift,omitempty"`
	// Arrivals adds tenant churn to a multi-tenant cell: each listed
	// benchmark arrives mid-run at its cycle, entering a free slot or the
	// bounded admission queue. Requires a Tenants list.
	Arrivals []ArrivalSpec `json:"arrivals,omitempty"`
	// QueueCap bounds the admission queue of a churn cell; arrivals past a
	// full queue are shed. Only meaningful with Arrivals.
	QueueCap int `json:"queue_cap,omitempty"`
	// Objective overrides the partitioning controller's optimization
	// objective ("ws", "fairness", "maxmin") for "multi-controller-*"
	// cells; empty keeps the default. Ignored by other configs.
	Objective string `json:"objective,omitempty"`
	// Mech overrides the translation mechanism both TLB levels run ("base",
	// "subentry", "deadblock", "largereach"); empty keeps the named
	// config's mechanism. Part of the cell's identity.
	Mech string `json:"mech,omitempty"`
	// Alloc overrides the UVM frame-allocation policy ("firsttouch",
	// "contig"); empty keeps the named config's policy. Part of the cell's
	// identity.
	Alloc string `json:"alloc,omitempty"`
}

// ArrivalSpec is one churn arrival of a multi-tenant cell.
type ArrivalSpec struct {
	// Bench is the arriving benchmark (Table II suite).
	Bench string `json:"bench"`
	// At is the arrival cycle; must be positive, nondecreasing across the
	// cell's arrival list.
	At int64 `json:"at"`
}

// JobSpec is a submitted experiment grid. Either list Cells explicitly or
// give Benchmarks × Configs and let Normalize expand the cross product
// (benchmark-major, config-minor — the order the experiments package uses).
type JobSpec struct {
	// Name labels the job in statuses and results; optional.
	Name string `json:"name,omitempty"`
	// Benchmarks of the grid; nil or empty means the full suite.
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Configs of the grid; required unless Cells is given.
	Configs []string `json:"configs,omitempty"`
	// Scale and Seed apply to every expanded grid cell.
	Scale float64 `json:"scale,omitempty"`
	Seed  int64   `json:"seed,omitempty"`
	// Cells, when non-empty, is the explicit cell list and the grid
	// fields above are ignored.
	Cells []CellSpec `json:"cells,omitempty"`
}

// namedConfig builds one architecture variant; pageShift, when non-zero,
// is the page-size shift the variant implies (2MB configs).
type namedConfig struct {
	build     func() arch.Config
	pageShift uint
}

// namedConfigs are the configuration variants a CellSpec can name — the
// same variants the experiments package sweeps for the paper's figures.
var namedConfigs = map[string]namedConfig{
	// The four Figure 10/11 bars.
	"baseline":         {experiments.BaselineConfig, 0},
	"sched":            {experiments.SchedConfig, 0},
	"sched+part":       {experiments.PartConfig, 0},
	"sched+part+share": {experiments.ShareConfig, 0},
	// Figure 2 capacities.
	"64-entry": {experiments.BaselineConfig, 0},
	"256-entry": {func() arch.Config {
		c := experiments.BaselineConfig()
		c.L1TLB.Entries = 256
		return c
	}, 0},
	// Figure 12 compression comparison.
	"compression": {func() arch.Config {
		c := experiments.BaselineConfig()
		c.TLBCompression = true
		return c
	}, 0},
	"ours+compression": {func() arch.Config {
		c := experiments.ShareConfig()
		c.TLBCompression = true
		return c
	}, 0},
	// Huge-page study.
	"baseline-4K": {experiments.BaselineConfig, 0},
	"baseline-2M": {func() arch.Config {
		c := experiments.BaselineConfig()
		c.PageSize = arch.PageSize2M
		return c
	}, 21},
	"ours-2M": {func() arch.Config {
		c := experiments.ShareConfig()
		c.PageSize = arch.PageSize2M
		return c
	}, 21},
}

// ConfigNames returns the recognized single-kernel configuration names,
// sorted. Multi-tenant cells use MultiConfigNames instead.
func ConfigNames() []string {
	out := make([]string, 0, len(namedConfigs))
	for n := range namedConfigs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ParseMultiConfig decodes a "multi-<tlb>-<sm>" config name into the L2 TLB
// tenancy mode and SM assignment of a co-run cell; ok is false when name is
// not a multi config.
func ParseMultiConfig(name string) (mode multi.TLBMode, assign sched.SMAssignment, ok bool) {
	rest, found := strings.CutPrefix(name, "multi-")
	if !found {
		return 0, 0, false
	}
	tlbName, smName, found := strings.Cut(rest, "-")
	if !found {
		return 0, 0, false
	}
	mode, err := multi.ParseTLBMode(tlbName)
	if err != nil {
		return 0, 0, false
	}
	assign, err = sched.ParseSMAssignment(smName)
	if err != nil {
		return 0, 0, false
	}
	return mode, assign, true
}

// MultiConfigNames returns the recognized multi-tenant configuration names
// ("multi-<tlb>-<sm>"), in grid order: TLB mode major, SM assignment minor.
func MultiConfigNames() []string {
	var out []string
	for _, mode := range experiments.MultiTLBModes {
		for _, assign := range experiments.MultiSMPolicies {
			out = append(out, fmt.Sprintf("multi-%s-%s", mode, assign))
		}
	}
	return out
}

// Normalize validates the spec and expands it to an explicit, fully
// defaulted cell list: grid fields become the benchmark-major cross
// product, empty Benchmarks becomes the full suite, and zero Scale/Seed
// become 1.0/1 on every cell. Normalize is idempotent; the normalized
// spec is what the journal records, making resume self-contained.
func (s *JobSpec) Normalize() error {
	if len(s.Cells) == 0 {
		benches := s.Benchmarks
		if len(benches) == 0 {
			for _, w := range workloads.All() {
				benches = append(benches, w.Name)
			}
		}
		if len(s.Configs) == 0 {
			return fmt.Errorf("jobs: spec needs configs (one of %v) or explicit cells", ConfigNames())
		}
		for _, b := range benches {
			for _, c := range s.Configs {
				s.Cells = append(s.Cells, CellSpec{Bench: b, Config: c, Scale: s.Scale, Seed: s.Seed})
			}
		}
		s.Benchmarks, s.Configs = nil, nil
	}
	for i := range s.Cells {
		c := &s.Cells[i]
		if c.Scale == 0 {
			c.Scale = 1.0
		}
		if c.Seed == 0 {
			c.Seed = 1
		}
		if _, err := tlbmech.ParseSpec(c.Mech); err != nil {
			return fmt.Errorf("jobs: cell %d: %w", i, err)
		}
		if _, err := vm.ParseAllocMode(c.Alloc); err != nil {
			return fmt.Errorf("jobs: cell %d: %w", i, err)
		}
		if len(c.Tenants) > 0 {
			if len(c.Tenants) < 2 {
				return fmt.Errorf("jobs: cell %d: co-run needs at least 2 tenants, got %d", i, len(c.Tenants))
			}
			for _, t := range c.Tenants {
				if _, ok := workloads.ByName(t); !ok {
					return fmt.Errorf("jobs: cell %d: unknown tenant benchmark %q", i, t)
				}
			}
			if _, _, ok := ParseMultiConfig(c.Config); !ok {
				return fmt.Errorf("jobs: cell %d: unknown multi config %q (one of %v)", i, c.Config, MultiConfigNames())
			}
			if c.QueueCap < 0 {
				return fmt.Errorf("jobs: cell %d: negative queue capacity %d", i, c.QueueCap)
			}
			if c.QueueCap > 0 && len(c.Arrivals) == 0 {
				return fmt.Errorf("jobs: cell %d: queue capacity without arrivals", i)
			}
			var prev int64
			for j, a := range c.Arrivals {
				if _, ok := workloads.ByName(a.Bench); !ok {
					return fmt.Errorf("jobs: cell %d: unknown arrival benchmark %q", i, a.Bench)
				}
				if a.At <= 0 || a.At < prev {
					return fmt.Errorf("jobs: cell %d: arrival %d cycle %d not positive and nondecreasing", i, j, a.At)
				}
				prev = a.At
			}
			if c.Objective != "" {
				if _, err := control.ParseObjective(c.Objective); err != nil {
					return fmt.Errorf("jobs: cell %d: %w", i, err)
				}
			}
			if c.Bench == "" {
				c.Bench = strings.Join(c.Tenants, "+")
			}
			continue
		}
		if len(c.Arrivals) > 0 || c.QueueCap != 0 || c.Objective != "" {
			return fmt.Errorf("jobs: cell %d: churn fields require a tenants list", i)
		}
		if _, ok := workloads.ByName(c.Bench); !ok {
			return fmt.Errorf("jobs: cell %d: unknown benchmark %q", i, c.Bench)
		}
		if _, _, ok := ParseMultiConfig(c.Config); ok {
			return fmt.Errorf("jobs: cell %d: multi config %q requires a tenants list", i, c.Config)
		}
		if _, ok := namedConfigs[c.Config]; !ok {
			return fmt.Errorf("jobs: cell %d: unknown config %q (one of %v)", i, c.Config, ConfigNames())
		}
	}
	s.Scale, s.Seed = 0, 0
	return nil
}
