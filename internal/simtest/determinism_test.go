package simtest

import (
	"fmt"
	"testing"

	"gputlb/internal/arch"
	"gputlb/internal/control"
	"gputlb/internal/engine"
	"gputlb/internal/multi"
	"gputlb/internal/sched"
	"gputlb/internal/sim"
	"gputlb/internal/workloads"
)

// testParams keeps the workloads small enough to run every check in
// seconds while still exercising every model path (TLB misses, walks,
// faults, dispatch waves).
func testParams() workloads.Params {
	return workloads.Params{PageShift: 12, Seed: 1, Scale: 0.1}
}

// soloBuild returns a Build for one benchmark under a config mutation.
func soloBuild(t *testing.T, bench string, mut func(*arch.Config)) Build {
	t.Helper()
	return func() (*sim.Simulator, error) {
		k, as, ok := workloads.CachedByName(bench, testParams())
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", bench)
		}
		cfg := arch.Default()
		mut(&cfg)
		return sim.New(cfg, k, as)
	}
}

// soloVariants are the solo configurations of the determinism checks: the
// baseline plus each scheduler/sampling feature that changes the event
// mix.
var soloVariants = []struct {
	name string
	mut  func(*arch.Config)
}{
	{"default", func(*arch.Config) {}},
	{"tlbAwareSched", func(c *arch.Config) { c.TBScheduler = arch.ScheduleTLBAware }},
	{"transAwareWarps", func(c *arch.Config) { c.WarpScheduler = arch.WarpTransAware }},
	{"sampling", func(c *arch.Config) { c.SampleInterval = 1000 }},
}

// TestSoloSerialDeterminism: every solo variant runs byte-identically twice
// (its identity to the committed golden stats is pinned separately by the
// experiments golden test).
func TestSoloSerialDeterminism(t *testing.T) {
	for _, v := range soloVariants {
		t.Run(v.name, func(t *testing.T) {
			CheckSerialUnchanged(t, soloBuild(t, "bfs", v.mut))
		})
	}
}

// TestSoloWorkerMatrix: every solo variant's stats snapshot and full trace
// stream are byte-identical whether it runs alone or beside copies of
// itself on the cell pool.
func TestSoloWorkerMatrix(t *testing.T) {
	for _, v := range soloVariants {
		t.Run(v.name, func(t *testing.T) {
			CheckWorkerInvariance(t, soloBuild(t, "bfs", v.mut), nil, true)
		})
	}
}

// multiBuild returns a Build for a two-tenant co-run under the given L2 TLB
// mode and SM assignment policy.
func multiBuild(t *testing.T, mode multi.TLBMode, assign sched.SMAssignment) Build {
	t.Helper()
	return func() (*sim.Simulator, error) {
		opt := multi.Options{Params: testParams(), SMPolicy: assign, TLBMode: mode}
		tenants, err := multi.Tenants([]string{"bfs", "atax"}, opt)
		if err != nil {
			return nil, err
		}
		var policy arch.TLBIndexPolicy
		switch mode {
		case multi.TLBStaticMode:
			policy = arch.IndexByTB
		case multi.TLBDynamicMode:
			policy = arch.IndexByTBShared
		default:
			policy = arch.IndexByAddress
		}
		return sim.NewMulti(arch.Default(), tenants, sim.MultiOptions{L2TLBPolicy: policy})
	}
}

// TestMultiTenantMatrix crosses every L2 TLB tenancy mode with every SM
// assignment policy and checks worker-count invariance (with trace-stream
// diffs) for each cell.
func TestMultiTenantMatrix(t *testing.T) {
	modes := []multi.TLBMode{multi.TLBSharedMode, multi.TLBStaticMode, multi.TLBDynamicMode}
	assigns := []sched.SMAssignment{sched.AssignSpatial, sched.AssignInterleaved, sched.AssignShared}
	for _, mode := range modes {
		for _, assign := range assigns {
			t.Run(fmt.Sprintf("%s_%s", mode, assign), func(t *testing.T) {
				CheckWorkerInvariance(t, multiBuild(t, mode, assign), nil, true)
			})
		}
	}
}

// ctlBuild returns a Build for a two-tenant co-run with the online
// partitioning controller attached — and, with churn, two mid-run arrivals
// through a bounded admission queue. The short period and zero cooldown
// force many decisions, so any counter drift would change an early decision
// and cascade into the results.
func ctlBuild(t *testing.T, churn bool) Build {
	t.Helper()
	return ctlBuildPeriod(t, churn, 512)
}

// ctlBuildPeriod is ctlBuild with the controller's decision epoch length
// (control.Config.Period) in cycles.
func ctlBuildPeriod(t *testing.T, churn bool, period int64) Build {
	t.Helper()
	return func() (*sim.Simulator, error) {
		opt := multi.Options{Params: testParams(), SMPolicy: sched.AssignSpatial}
		tenants, err := multi.Tenants([]string{"bfs", "atax"}, opt)
		if err != nil {
			return nil, err
		}
		mopt := sim.MultiOptions{L2TLBPolicy: arch.IndexByTB}
		if churn {
			spec := &sim.ChurnSpec{QueueCap: 1}
			for _, a := range []struct {
				bench string
				at    int64
			}{{"mis", 3000}, {"mvt", 6000}} {
				k, as, ok := workloads.CachedByName(a.bench, testParams())
				if !ok {
					return nil, fmt.Errorf("unknown benchmark %q", a.bench)
				}
				spec.Arrivals = append(spec.Arrivals, sim.ChurnArrival{
					Tenant: sim.Tenant{Name: a.bench, Kernel: k, AS: as},
					At:     engine.Cycle(a.at),
				})
			}
			mopt.Churn = spec
		}
		s, err := sim.NewMulti(arch.Default(), tenants, mopt)
		if err != nil {
			return nil, err
		}
		if _, err := s.AttachController(control.Config{Period: period, Cooldown: 0}); err != nil {
			return nil, err
		}
		return s, nil
	}
}

// TestControllerSerialDeterminism: controller + churn cells run
// deterministically too.
func TestControllerSerialDeterminism(t *testing.T) {
	CheckSerialUnchanged(t, ctlBuild(t, true))
}

// TestControllerWorkerMatrix: controller cells — with and without tenant
// churn — are byte-identical in stats and trace stream across worker counts.
func TestControllerWorkerMatrix(t *testing.T) {
	for _, churn := range []bool{false, true} {
		t.Run(fmt.Sprintf("churn=%v", churn), func(t *testing.T) {
			CheckWorkerInvariance(t, ctlBuild(t, churn), nil, true)
		})
	}
}

// TestControllerEpochMatrix: across controller decision epoch lengths, from
// a decision every 256 cycles to the 4096-cycle default, each cell runs
// deterministically and the epoch changes only how the machine is
// partitioned, never the work it does: every thread block of every
// admitted tenant runs and every warp instruction issues exactly once.
func TestControllerEpochMatrix(t *testing.T) {
	for _, churn := range []bool{false, true} {
		t.Run(fmt.Sprintf("churn=%v", churn), func(t *testing.T) {
			for _, period := range []int64{256, 1024, 4096} {
				b := ctlBuildPeriod(t, churn, period)
				CheckSerialUnchanged(t, b)
				r := runCell(t, b)
				wantTBs, wantInsts := workloadTotals(t, "", r)
				var tbs int
				for _, n := range r.TBsPerSM {
					tbs += n
				}
				if tbs != wantTBs {
					t.Errorf("period=%d: TBsPerSM sums to %d, workload has %d TBs", period, tbs, wantTBs)
				}
				if r.InstsIssued != wantInsts {
					t.Errorf("period=%d: issued %d instructions, workload has %d", period, r.InstsIssued, wantInsts)
				}
			}
		})
	}
}
