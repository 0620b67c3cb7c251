package simtest

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"gputlb/internal/parallel"
	"gputlb/internal/sim"
	"gputlb/internal/stats"
)

// Build constructs a fresh simulator for one trial. A Simulator runs
// exactly once, so the harness calls Build again for every run.
type Build func() (*sim.Simulator, error)

// traceCapacity bounds the harness tracer's ring. Trials that overflow it
// fail rather than compare a truncated stream.
const traceCapacity = 1 << 18

// Run executes one trial on a freshly built simulator, returning the run's
// Result, its full stats registry as canonical JSON, and — when withTrace
// is set — the complete trace event stream as Chrome trace JSON.
func Run(b Build, withTrace bool) (sim.Result, []byte, []byte, error) {
	s, err := b()
	if err != nil {
		return sim.Result{}, nil, nil, err
	}
	var tr *stats.Tracer
	if withTrace {
		tr = stats.NewTracer(traceCapacity)
		s.SetTracer(tr, 0)
	}
	r := s.Run()
	var statsBuf bytes.Buffer
	if err := r.Stats.WriteJSON(&statsBuf); err != nil {
		return sim.Result{}, nil, nil, err
	}
	var traceBuf bytes.Buffer
	if withTrace {
		if tr.Dropped() > 0 {
			return sim.Result{}, nil, nil, fmt.Errorf("simtest: tracer dropped %d events; raise traceCapacity", tr.Dropped())
		}
		if err := tr.WriteChromeTrace(&traceBuf); err != nil {
			return sim.Result{}, nil, nil, err
		}
	}
	return r, statsBuf.Bytes(), traceBuf.Bytes(), nil
}

// CheckSerialUnchanged runs b twice and fails t unless the two stats
// snapshots and trace streams are byte-identical: the simulator keeps no
// hidden state across runs and draws no nondeterminism from the host.
func CheckSerialUnchanged(t testing.TB, b Build) {
	t.Helper()
	_, aStats, aTrace, err := Run(b, true)
	if err != nil {
		t.Fatal(err)
	}
	_, cStats, cTrace, err := Run(b, true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aStats, cStats) {
		t.Error("two runs diverged in their stats snapshots")
	}
	if !bytes.Equal(aTrace, cTrace) {
		t.Error("two runs diverged in their trace streams")
	}
}

// trial is one Run's stats snapshot and trace stream.
type trial struct{ stats, trace []byte }

// CheckWorkerInvariance runs b alone, then runs w copies of it at once on a
// w-worker internal/parallel cell pool for each w in workers ({2, 4} when
// nil), and fails t unless every copy's stats snapshot — and, with
// withTrace, its full trace stream — is byte-identical to the lone run.
// Concurrent cells share the cached workloads and their address spaces, as
// they do in every sweep, so this checks that no cell's outcome depends on
// what the cells beside it do.
func CheckWorkerInvariance(t testing.TB, b Build, workers []int, withTrace bool) {
	t.Helper()
	if workers == nil {
		workers = []int{2, 4}
	}
	_, wantStats, wantTrace, err := Run(b, withTrace)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workers {
		got, err := parallel.Map(context.Background(), parallel.Options{Workers: w}, w,
			func(context.Context, int) (trial, error) {
				_, st, tr, err := Run(b, withTrace)
				return trial{st, tr}, err
			})
		if err != nil {
			t.Fatal(err)
		}
		for i, g := range got {
			if !bytes.Equal(g.stats, wantStats) {
				t.Errorf("workers=%d copy %d: stats snapshot diverged from the lone run (%d vs %d bytes)",
					w, i, len(g.stats), len(wantStats))
			}
			if withTrace && !bytes.Equal(g.trace, wantTrace) {
				t.Errorf("workers=%d copy %d: trace stream diverged from the lone run (%d vs %d bytes)",
					w, i, len(g.trace), len(wantTrace))
			}
		}
	}
}
