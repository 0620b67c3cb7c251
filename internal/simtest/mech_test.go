package simtest

import (
	"testing"

	"gputlb/internal/arch"
	"gputlb/internal/multi"
	"gputlb/internal/sched"
	"gputlb/internal/sim"
)

// mechConfigs are the non-base translation mechanisms with the frame
// allocator each is evaluated under; base's determinism is pinned by the
// golden stats and every other check.
var mechConfigs = []struct {
	mech  string
	alloc string
}{
	{"subentry", ""},
	{"deadblock", ""},
	{"largereach", "contig"},
}

func mechMut(mech, alloc string) func(*arch.Config) {
	return func(c *arch.Config) {
		c.TLBMech = mech
		c.AllocMode = alloc
	}
}

// TestMechSerialDeterminism: every mechanism runs byte-identically twice,
// solo and on a shared-L2 co-run — mechanism side tables (sub-slots,
// predictor counters, run bounds), including cross-ASID sub-entry state,
// are driven only by the simulated request order.
func TestMechSerialDeterminism(t *testing.T) {
	for _, mc := range mechConfigs {
		t.Run(mc.mech, func(t *testing.T) {
			CheckSerialUnchanged(t, soloBuild(t, "bfs", mechMut(mc.mech, mc.alloc)))
			CheckSerialUnchanged(t, mechMultiBuild(t, mc.mech, mc.alloc))
		})
	}
}

// TestMechWorkerMatrix: each mechanism's stats snapshot and trace stream are
// byte-identical across worker counts — mechanism side tables (sub-slots,
// predictor counters, run bounds) are private to one simulator, never
// shared with the cells running beside it.
func TestMechWorkerMatrix(t *testing.T) {
	for _, mc := range mechConfigs {
		t.Run(mc.mech, func(t *testing.T) {
			CheckWorkerInvariance(t, soloBuild(t, "bfs", mechMut(mc.mech, mc.alloc)), nil, true)
		})
	}
}

// TestMechMultiTenantMatrix: the multi-tenant cells of the mechanism study
// are worker-invariant too, cross-ASID sub-entry state included.
func TestMechMultiTenantMatrix(t *testing.T) {
	for _, mc := range mechConfigs {
		t.Run(mc.mech, func(t *testing.T) {
			CheckWorkerInvariance(t, mechMultiBuild(t, mc.mech, mc.alloc), nil, true)
		})
	}
}

// mechMultiBuild returns a Build for a two-tenant co-run on a fully shared
// L2 TLB under the given mechanism — the regime where sub-entry sharing
// actually shares tags across ASIDs.
func mechMultiBuild(t *testing.T, mech, alloc string) Build {
	t.Helper()
	return func() (*sim.Simulator, error) {
		opt := multi.Options{Params: testParams(), SMPolicy: sched.AssignSpatial}
		tenants, err := multi.Tenants([]string{"bfs", "atax"}, opt)
		if err != nil {
			return nil, err
		}
		cfg := arch.Default()
		cfg.TLBMech = mech
		cfg.AllocMode = alloc
		return sim.NewMulti(cfg, tenants, sim.MultiOptions{})
	}
}
