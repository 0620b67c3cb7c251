package jobs_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gputlb/internal/fabric"
	"gputlb/internal/jobs"
	"gputlb/internal/jobs/jobstest"
)

// These tests drive the job server — a fabric coordinator with its
// in-process worker, exactly what a default gputlbd serves — through its
// exported API, and check its results against an independent in-process
// oracle.

// evalSpec is a small Figure 10/11-shaped grid: 2 benchmarks × 4 configs
// at reduced scale.
func evalSpec() jobs.JobSpec {
	return jobs.JobSpec{
		Name:       "eval",
		Benchmarks: []string{"atax", "mvt"},
		Configs:    []string{"baseline", "sched", "sched+part", "sched+part+share"},
		Scale:      0.1,
	}
}

// newServer creates a default server over dir (a fresh one if empty).
// A started server is drained at cleanup.
func newServer(t *testing.T, dir string, queue int, wopt fabric.WorkerOptions, start bool) *fabric.Coordinator {
	t.Helper()
	if dir == "" {
		dir = t.TempDir()
	}
	c, err := fabric.NewLocal(fabric.CoordinatorOptions{Dir: dir, QueueCapacity: queue}, wopt)
	if err != nil {
		t.Fatal(err)
	}
	if start {
		c.Start()
		t.Cleanup(func() { drain(t, c) })
	}
	return c
}

func waitState(t *testing.T, c *fabric.Coordinator, id string, want ...jobs.State) jobs.Status {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		st, ok := c.Job(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		for _, w := range want {
			if st.State == w {
				return st
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	st, _ := c.Job(id)
	t.Fatalf("job %s stuck in %s waiting for %v", id, st.State, want)
	return jobs.Status{}
}

func drain(t *testing.T, c *fabric.Coordinator) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := c.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func counterAt(t *testing.T, c *fabric.Coordinator, path string) int64 {
	t.Helper()
	v, ok := c.MetricsSnapshot().CounterAt(path)
	if !ok {
		t.Fatalf("metric %s not found", path)
	}
	return v
}

// interruptAfter returns a fault hook for a one-runner worker: the first
// n cells run; every later attempt blocks until release is closed and
// then fails. reached is closed when cell n+1 blocks. Paired with a long
// RetryBackoff, a drain started meanwhile cancels that cell's retry, so
// it is cancelled rather than failed and leaves no journal record.
func interruptAfter(n int32) (hook func(jobs.CellSpec, int) error, reached, release chan struct{}) {
	reached, release = make(chan struct{}), make(chan struct{})
	var calls atomic.Int32
	hook = func(jobs.CellSpec, int) error {
		k := calls.Add(1)
		if k <= n {
			return nil
		}
		if k == n+1 {
			close(reached)
		}
		<-release
		return errors.New("interrupted")
	}
	return hook, reached, release
}

// drainInterrupted drains c while its worker is blocked in an
// interruptAfter hook.
func drainInterrupted(t *testing.T, c *fabric.Coordinator, reached, release chan struct{}) {
	t.Helper()
	<-reached
	errc := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		errc <- c.Drain(ctx)
	}()
	close(release)
	if err := <-errc; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestKillAndResumeByteIdentical is the acceptance e2e: a server drained
// mid-sweep leaves a journal; a fresh server over the same directory
// resumes, re-runs only the unfinished cells, and produces a result
// byte-identical to the in-process oracle's.
func TestKillAndResumeByteIdentical(t *testing.T) {
	const interruptAt = 3
	want := jobstest.Result(t, evalSpec())

	// Interrupted run: one runner, so exactly interruptAt cells finish
	// before the drain.
	dir := t.TempDir()
	hook, reached, release := interruptAfter(interruptAt)
	c1 := newServer(t, dir, 0, fabric.WorkerOptions{Parallelism: 1, RetryBackoff: time.Minute, InjectCellError: hook}, false)
	c1.Start()
	id, err := c1.Submit(evalSpec())
	if err != nil {
		t.Fatal(err)
	}
	drainInterrupted(t, c1, reached, release)
	if st, _ := c1.Job(id); st.State != jobs.StateCheckpointed {
		t.Fatalf("drained job is %s, want checkpointed", st.State)
	}
	if _, err := c1.Result(id); !errors.Is(err, jobs.ErrNotDone) {
		t.Fatalf("checkpointed job's result should be ErrNotDone, got %v", err)
	}

	// Resume: a fresh server over the same journal directory.
	var rerun atomic.Int32
	c2 := newServer(t, dir, 0, fabric.WorkerOptions{Parallelism: 2, InjectCellError: func(jobs.CellSpec, int) error {
		rerun.Add(1)
		return nil
	}}, false)
	st, ok := c2.Job(id)
	if !ok || st.State != jobs.StateCheckpointed {
		t.Fatalf("job not loaded as checkpointed: %+v (ok=%v)", st, ok)
	}
	if st.CellsDone != interruptAt {
		t.Fatalf("resumed job shows %d cells done, want %d", st.CellsDone, interruptAt)
	}
	c2.Start()
	t.Cleanup(func() { drain(t, c2) })
	waitState(t, c2, id, jobs.StateDone)
	got, err := c2.Result(id)
	if err != nil {
		t.Fatal(err)
	}

	total := len(evalSpec().Benchmarks) * len(evalSpec().Configs)
	if int(rerun.Load()) != total-interruptAt {
		t.Errorf("resume re-ran %d cells, want only the %d unfinished", rerun.Load(), total-interruptAt)
	}
	if rec := counterAt(t, c2, "jobs/cells_recovered"); rec != interruptAt {
		t.Errorf("cells_recovered = %d, want %d", rec, interruptAt)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("resumed result differs from the in-process oracle (lens %d vs %d)", len(got), len(want))
	}
}

// TestRetryWithBackoff injects two failures into one cell and checks the
// cell ultimately succeeds, the backoff schedule is exponential, and the
// retries surface in the status and the metrics tree.
func TestRetryWithBackoff(t *testing.T) {
	var (
		mu    sync.Mutex
		tries []time.Time
	)
	c := newServer(t, "", 0, fabric.WorkerOptions{
		Parallelism:  1,
		MaxAttempts:  3,
		RetryBackoff: 50 * time.Millisecond,
		InjectCellError: func(cell jobs.CellSpec, attempt int) error {
			if cell.Config != "sched" {
				return nil
			}
			mu.Lock()
			tries = append(tries, time.Now())
			mu.Unlock()
			if attempt <= 2 {
				return fmt.Errorf("injected failure %d", attempt)
			}
			return nil
		},
	}, true)
	id, err := c.Submit(jobs.JobSpec{Benchmarks: []string{"atax"}, Configs: []string{"baseline", "sched"}, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	st := waitState(t, c, id, jobs.StateDone, jobs.StateFailed)

	if st.State != jobs.StateDone {
		t.Fatalf("job = %s (%s), want done", st.State, st.Error)
	}
	if st.Retries != 2 {
		t.Errorf("status retries = %d, want 2", st.Retries)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(tries) != 3 {
		t.Fatalf("sched cell tried %d times, want 3", len(tries))
	}
	// Exponential doubling from the configured base: the injected attempts
	// fail before any simulation, so each gap is the backoff itself and
	// must lie in [want, 2*want) — a wrong base or factor falls outside.
	for i, want := range []time.Duration{50 * time.Millisecond, 100 * time.Millisecond} {
		if gap := tries[i+1].Sub(tries[i]); gap < want || gap >= 2*want {
			t.Errorf("backoff %d = %v, want in [%v, %v)", i, gap, want, 2*want)
		}
	}
	if got := counterAt(t, c, "jobs/cells_retried"); got != 2 {
		t.Errorf("cells_retried = %d, want 2", got)
	}
	if got := counterAt(t, c, "jobs/cells_failed"); got != 0 {
		t.Errorf("cells_failed = %d, want 0", got)
	}
}

// TestPermanentFailure exhausts a cell's attempts: the job fails, the
// cell's error is recorded, and the failure shows in metrics — but the
// other cells still complete and are journaled.
func TestPermanentFailure(t *testing.T) {
	c := newServer(t, "", 0, fabric.WorkerOptions{
		Parallelism:  1,
		MaxAttempts:  2,
		RetryBackoff: time.Millisecond,
		InjectCellError: func(cell jobs.CellSpec, _ int) error {
			if cell.Bench == "mvt" {
				return errors.New("injected permanent failure")
			}
			return nil
		},
	}, true)
	id, err := c.Submit(jobs.JobSpec{Benchmarks: []string{"atax", "mvt"}, Configs: []string{"baseline"}, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	st := waitState(t, c, id, jobs.StateDone, jobs.StateFailed)

	if st.State != jobs.StateFailed {
		t.Fatalf("job = %s, want failed", st.State)
	}
	if st.CellsFailed != 1 || st.CellsDone != 1 {
		t.Errorf("cells done/failed = %d/%d, want 1/1", st.CellsDone, st.CellsFailed)
	}
	if got := counterAt(t, c, "jobs/cells_failed"); got != 1 {
		t.Errorf("cells_failed = %d, want 1", got)
	}
	if got := counterAt(t, c, "jobs/jobs_failed"); got != 1 {
		t.Errorf("jobs_failed = %d, want 1", got)
	}
	if _, err := c.Result(id); !errors.Is(err, jobs.ErrNotDone) {
		t.Errorf("failed job's result should be ErrNotDone, got %v", err)
	}
}

// TestQueueSheds verifies the bounded queue: submissions beyond capacity
// fail fast with ErrQueueFull instead of accumulating.
func TestQueueSheds(t *testing.T) {
	// Not started: nothing drains the queue.
	c := newServer(t, "", 1, fabric.WorkerOptions{}, false)
	spec := jobs.JobSpec{Benchmarks: []string{"atax"}, Configs: []string{"baseline"}, Scale: 0.1}
	if _, err := c.Submit(spec); err != nil {
		t.Fatalf("first submit: %v", err)
	}
	if _, err := c.Submit(spec); !errors.Is(err, jobs.ErrQueueFull) {
		t.Fatalf("second submit = %v, want ErrQueueFull", err)
	}
	if got := counterAt(t, c, "jobs/jobs_shed"); got != 1 {
		t.Errorf("jobs_shed = %d, want 1", got)
	}
	if got := counterAt(t, c, "jobs/queue_depth"); got != 1 {
		t.Errorf("queue_depth = %d, want 1", got)
	}
}

// TestCellTimeout converts a wedged attempt into a retry.
func TestCellTimeout(t *testing.T) {
	c := newServer(t, "", 0, fabric.WorkerOptions{
		Parallelism:  1,
		MaxAttempts:  2,
		RetryBackoff: time.Millisecond,
		// The timeout also covers the real second attempt, so leave it
		// plenty of room for a race-detector-slowed simulation.
		CellTimeout: 2 * time.Second,
		InjectCellError: func(_ jobs.CellSpec, attempt int) error {
			if attempt == 1 {
				time.Sleep(10 * time.Second) // wedge the first attempt
			}
			return nil
		},
	}, true)
	id, err := c.Submit(jobs.JobSpec{Benchmarks: []string{"atax"}, Configs: []string{"baseline"}, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	st := waitState(t, c, id, jobs.StateDone, jobs.StateFailed)
	if st.State != jobs.StateDone {
		t.Fatalf("job = %s (%s), want done after timeout retry", st.State, st.Error)
	}
	if st.Retries != 1 {
		t.Errorf("retries = %d, want 1 (the timed-out attempt)", st.Retries)
	}
}

// TestDrainingRejectsSubmissions checks the graceful-shutdown contract.
func TestDrainingRejectsSubmissions(t *testing.T) {
	c := newServer(t, "", 0, fabric.WorkerOptions{}, true)
	drain(t, c)
	if _, err := c.Submit(jobs.JobSpec{Benchmarks: []string{"atax"}, Configs: []string{"baseline"}, Scale: 0.1}); !errors.Is(err, jobs.ErrDraining) {
		t.Fatalf("submit after drain = %v, want ErrDraining", err)
	}
}
