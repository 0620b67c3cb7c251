package fabric

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gputlb/internal/jobs"
)

// The end-to-end suite: an in-process coordinator and N in-process
// workers wired through real HTTP servers, checked for byte-identity
// against the single-process manager on the same specs — under worker
// kill, flaky result delivery, stalled-worker stealing, and coordinator
// restart.

// fastOpts are coordinator timings scaled for tests: leases expire in
// hundreds of milliseconds instead of seconds.
func fastOpts(dir string) CoordinatorOptions {
	return CoordinatorOptions{
		Dir:          dir,
		BatchSize:    2,
		TickEvery:    10 * time.Millisecond,
		LeaseTimeout: 400 * time.Millisecond,
		StealAfter:   200 * time.Millisecond,
	}
}

// killableTransport simulates a network partition: once dead, every
// request from the worker (heartbeats, result flushes, registration)
// fails.
type killableTransport struct {
	dead atomic.Bool
}

func (k *killableTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if k.dead.Load() {
		return nil, errors.New("network partition (test)")
	}
	return http.DefaultTransport.RoundTrip(r)
}

type testWorker struct {
	w         *Worker
	srv       *httptest.Server
	transport *killableTransport
}

// kill severs the worker from the fabric: its server stops accepting
// dispatches and its outbound traffic (heartbeats, results) fails.
func (tw *testWorker) kill() {
	tw.transport.dead.Store(true)
	tw.srv.Close()
}

func (tw *testWorker) stop() {
	tw.transport.dead.Store(true) // unblock any flush retry loops fast
	tw.w.Close()
	tw.srv.Close()
}

// startWorker brings up one worker behind its own HTTP server, joined to
// coordinatorURL.
func startWorker(t *testing.T, coordinatorURL string) *testWorker {
	t.Helper()
	var handler atomic.Value
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.Load().(http.Handler).ServeHTTP(w, r)
	}))
	tr := &killableTransport{}
	w := NewWorker(WorkerOptions{
		CoordinatorURL: coordinatorURL,
		AdvertiseURL:   srv.URL,
		Parallelism:    2,
		FlushSize:      2,
		FlushWait:      10 * time.Millisecond,
		HeartbeatEvery: 50 * time.Millisecond,
		RetryBackoff:   10 * time.Millisecond,
		HTTPClient:     &http.Client{Transport: tr},
	})
	handler.Store(w.Handler())
	if err := w.Start(); err != nil {
		srv.Close()
		t.Fatal(err)
	}
	return &testWorker{w: w, srv: srv, transport: tr}
}

// startCoordinator brings up a coordinator behind an HTTP server.
func startCoordinator(t *testing.T, opt CoordinatorOptions) (*Coordinator, *httptest.Server) {
	t.Helper()
	return startCoordinatorWrapped(t, opt, func(h http.Handler) http.Handler { return h })
}

// startCoordinatorWrapped is startCoordinator with wrap around the
// coordinator's handler.
func startCoordinatorWrapped(t *testing.T, opt CoordinatorOptions, wrap func(http.Handler) http.Handler) (*Coordinator, *httptest.Server) {
	t.Helper()
	c, err := NewCoordinator(opt)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	srv := httptest.NewServer(wrap(c.Handler()))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		c.Drain(ctx)
		srv.Close()
	})
	return c, srv
}

// singleDaemonResult runs spec on the single-process manager and returns
// the canonical result bytes — the byte-identity reference.
func singleDaemonResult(t *testing.T, spec jobs.JobSpec) []byte {
	t.Helper()
	m, err := jobs.New(jobs.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		m.Drain(ctx)
	}()
	id, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(120 * time.Second)
	for {
		st, ok := m.Job(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if st.State == jobs.StateDone {
			break
		}
		if st.State == jobs.StateFailed {
			t.Fatalf("reference job failed: %s", st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("reference job stuck in %s", st.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
	out, err := m.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// submitAndWait submits spec through the coordinator's HTTP API (the
// same jobs.Client the evaluate -daemon path uses) and returns the
// result bytes.
func submitAndWait(t *testing.T, baseURL string, spec jobs.JobSpec) []byte {
	t.Helper()
	cl := &jobs.Client{BaseURL: baseURL}
	id, err := cl.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	st, err := cl.Wait(ctx, id, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != jobs.StateDone {
		t.Fatalf("job %s ended %s: %s", id, st.State, st.Error)
	}
	out, err := cl.RawResult(id)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func testJobSpec() jobs.JobSpec {
	return jobs.JobSpec{
		Name:       "fabric-e2e",
		Benchmarks: []string{"atax", "bicg", "mvt"},
		Configs:    []string{"baseline", "sched"},
		Scale:      0.1,
	}
}

// TestFabricByteIdenticalToSingleDaemon is the core acceptance property:
// a coordinator with three workers produces the exact result bytes of a
// single-process daemon run of the same spec.
func TestFabricByteIdenticalToSingleDaemon(t *testing.T) {
	spec := testJobSpec()
	want := singleDaemonResult(t, spec)

	_, srv := startCoordinator(t, fastOpts(t.TempDir()))
	for i := 0; i < 3; i++ {
		tw := startWorker(t, srv.URL)
		defer tw.stop()
	}
	got := submitAndWait(t, srv.URL, spec)
	if !bytes.Equal(got, want) {
		t.Errorf("distributed result differs from single-daemon result:\n got %d bytes\nwant %d bytes", len(got), len(want))
	}
}

// TestFabricSmoke is the CI smoke (make fabric-smoke): coordinator + 2
// workers, one killed mid-job — dispatch failures, heartbeat expiry, and
// re-dispatch of unacked cells — and the survivor still delivers a
// byte-identical result file.
func TestFabricSmoke(t *testing.T) {
	spec := testJobSpec()
	want := singleDaemonResult(t, spec)

	// Kill the second worker once the job is demonstrably mid-flight: right
	// after the coordinator ingests the first result flush (at most
	// FlushSize of the spec's cells), before it takes any other. Polling
	// the job's status for that window instead races the job: at this
	// scale it can finish between two polls.
	var victim atomic.Pointer[testWorker]
	var resultsMu sync.Mutex
	var killOnce sync.Once
	c, srv := startCoordinatorWrapped(t, fastOpts(t.TempDir()), func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/results" {
				h.ServeHTTP(w, r)
				return
			}
			resultsMu.Lock()
			defer resultsMu.Unlock()
			h.ServeHTTP(w, r)
			killOnce.Do(func() { victim.Load().kill() })
		})
	})
	w1 := startWorker(t, srv.URL)
	defer w1.stop()
	w2 := startWorker(t, srv.URL)
	defer w2.srv.Close() // w2.kill below severs it; just free the port listener state
	victim.Store(w2)

	cl := &jobs.Client{BaseURL: srv.URL}
	id, err := cl.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	st, err := cl.Wait(ctx, id, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != jobs.StateDone {
		t.Fatalf("job ended %s after worker kill: %s", st.State, st.Error)
	}
	got, err := cl.RawResult(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("result after mid-job worker kill differs from single-daemon result")
	}
	// The survivor may finish (via stealing) before the killed worker's
	// lease timeout elapses; the expiry scan keeps running, so poll.
	expireDeadline := time.Now().Add(10 * time.Second)
	for {
		if v, _ := c.MetricsSnapshot().CounterAt("fabric/workers_expired"); v >= 1 {
			break
		}
		if time.Now().After(expireDeadline) {
			t.Fatal("killed worker never expired off the registry")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFabricCacheWarmRerun: resubmitting an identical job must complete
// entirely from the content-addressed cache — zero cells dispatched to
// workers — and still produce the byte-identical artifact.
func TestFabricCacheWarmRerun(t *testing.T) {
	spec := jobs.JobSpec{
		Name:       "cache-warm",
		Benchmarks: []string{"atax", "bicg"},
		Configs:    []string{"baseline", "sched"},
		Scale:      0.1,
	}
	c, srv := startCoordinator(t, fastOpts(t.TempDir()))
	tw := startWorker(t, srv.URL)
	defer tw.stop()

	first := submitAndWait(t, srv.URL, spec)
	snap := c.MetricsSnapshot()
	dispatchedCold, _ := snap.CounterAt("fabric/cells_dispatched")
	if hits, _ := snap.CounterAt("result_cache/hits"); hits != 0 {
		t.Errorf("cold run hit the cache %d times", hits)
	}

	second := submitAndWait(t, srv.URL, spec)
	if !bytes.Equal(first, second) {
		t.Error("cache-served result differs from the simulated one")
	}
	snap = c.MetricsSnapshot()
	if hits, _ := snap.CounterAt("result_cache/hits"); hits != 4 {
		t.Errorf("warm run cache hits = %d, want 4 (100%%)", hits)
	}
	if fromCache, _ := snap.CounterAt("fabric/cells_from_cache"); fromCache != 4 {
		t.Errorf("cells_from_cache = %d, want 4", fromCache)
	}
	if dispatchedWarm, _ := snap.CounterAt("fabric/cells_dispatched"); dispatchedWarm != dispatchedCold {
		t.Errorf("warm run dispatched %d new cells, want 0 (re-simulated)", dispatchedWarm-dispatchedCold)
	}
	// The two artifacts are separate jobs with separate journals; both
	// result files must also match a fresh single-daemon run.
	want := singleDaemonResult(t, spec)
	if !bytes.Equal(first, want) {
		t.Error("fabric result differs from single-daemon result")
	}
}

// TestFabricFlakyResultDelivery drops the coordinator's response to
// every 2nd result flush after processing it — the lost-ack case. The
// worker's batcher must retry (at-least-once), the coordinator must
// deduplicate the replays, the journal must record each cell exactly
// once, and the job must complete byte-identically.
func TestFabricFlakyResultDelivery(t *testing.T) {
	spec := jobs.JobSpec{
		Name:       "flaky",
		Benchmarks: []string{"atax", "bicg"},
		Configs:    []string{"baseline", "sched"},
		Scale:      0.1,
	}
	want := singleDaemonResult(t, spec)

	dir := t.TempDir()
	c, srv := startCoordinator(t, fastOpts(dir))

	// A dropping proxy between worker and coordinator: forwards every
	// request, but swallows the response of every 2nd /results POST.
	var resultPosts atomic.Int64
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		req, err := http.NewRequest(r.Method, srv.URL+r.URL.Path, bytes.NewReader(body))
		if err != nil {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		req.Header = r.Header.Clone()
		resp, err := http.DefaultTransport.RoundTrip(req)
		if err != nil {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		if r.Method == http.MethodPost && r.URL.Path == "/results" && resultPosts.Add(1)%2 == 1 {
			// The coordinator processed the batch; its ack is "lost".
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		for k, vs := range resp.Header {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(resp.StatusCode)
		w.Write(out)
	}))
	defer proxy.Close()

	tw := startWorker(t, proxy.URL)
	defer tw.stop()

	got := submitAndWait(t, srv.URL, spec)
	if !bytes.Equal(got, want) {
		t.Error("result under flaky delivery differs from single-daemon result")
	}
	// The replay of the lost-ack batch arrives on the worker's retry
	// backoff, possibly after the job already finished — poll for it.
	dupDeadline := time.Now().Add(10 * time.Second)
	for {
		if dups, _ := c.MetricsSnapshot().CounterAt("fabric/results_duplicate"); dups >= 1 {
			break
		}
		if time.Now().After(dupDeadline) {
			t.Fatal("no lost-ack replay was ever deduplicated")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if retries, ok := tw.w.Registry().Snapshot().CounterAt("worker/flush_retries"); !ok || retries < 1 {
		t.Errorf("worker flush_retries = %d, want >= 1", retries)
	}
	assertJournalNoDuplicateCells(t, jobs.JournalPath(dir, "job-0001"))
}

// assertJournalNoDuplicateCells parses a journal's raw lines and fails
// if any cell index carries more than one durable outcome record.
func assertJournalNoDuplicateCells(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	seen := map[int]int{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	for sc.Scan() {
		var rec struct {
			Type  string `json:"type"`
			Index int    `json:"index"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			continue
		}
		if rec.Type == "cell" || rec.Type == "fail" {
			seen[rec.Index]++
		}
	}
	for idx, n := range seen {
		if n > 1 {
			t.Errorf("cell %d journaled %d times, want exactly once", idx, n)
		}
	}
}

// TestFabricStealsFromStalledWorker registers a black-hole worker that
// accepts cell batches and heartbeats diligently but never returns a
// result. The real worker must steal its leases and finish the job.
func TestFabricStealsFromStalledWorker(t *testing.T) {
	spec := jobs.JobSpec{
		Name:       "steal",
		Benchmarks: []string{"atax", "bicg"},
		Configs:    []string{"baseline", "sched"},
		Scale:      0.1,
	}
	want := singleDaemonResult(t, spec)

	c, srv := startCoordinator(t, fastOpts(t.TempDir()))

	// Black hole: 202s every batch, runs nothing, heartbeats forever.
	hole := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte("{}"))
	}))
	defer hole.Close()
	body, _ := json.Marshal(RegisterRequest{URL: hole.URL, Parallelism: 2})
	resp, err := http.Post(srv.URL+"/workers", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var rr RegisterResponse
	json.NewDecoder(resp.Body).Decode(&rr)
	resp.Body.Close()
	stopBeats := make(chan struct{})
	defer close(stopBeats)
	go func() {
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopBeats:
				return
			case <-tick.C:
				resp, err := http.Post(srv.URL+"/workers/"+rr.ID+"/heartbeat", "application/json", nil)
				if err == nil {
					resp.Body.Close()
				}
			}
		}
	}()

	tw := startWorker(t, srv.URL)
	defer tw.stop()

	got := submitAndWait(t, srv.URL, spec)
	if !bytes.Equal(got, want) {
		t.Error("result with a stalled worker differs from single-daemon result")
	}
	snap := c.MetricsSnapshot()
	if stolen, _ := snap.CounterAt("fabric/cells_stolen"); stolen < 1 {
		t.Errorf("cells_stolen = %d, want >= 1 (the black hole held leases)", stolen)
	}
}

// TestCoordinatorResume drains a coordinator mid-job and restarts a new
// one on the same journal directory: journaled cells must not re-run,
// and the completed result must be byte-identical.
func TestCoordinatorResume(t *testing.T) {
	spec := testJobSpec()
	want := singleDaemonResult(t, spec)

	dir := t.TempDir()
	c1, err := NewCoordinator(fastOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	c1.Start()
	srv1 := httptest.NewServer(c1.Handler())
	w1 := startWorker(t, srv1.URL)

	cl := &jobs.Client{BaseURL: srv1.URL}
	id, err := cl.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(120 * time.Second)
	for {
		st, err := cl.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.CellsDone >= 1 && st.CellsDone < st.Cells {
			break
		}
		if st.State == jobs.StateDone {
			t.Skip("job finished before the restart point")
		}
		if time.Now().After(deadline) {
			t.Fatalf("no progress: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Stop the worker before draining so no in-flight result can land
	// and finalize the job between the progress check and the drain.
	w1.stop()
	if st, _ := cl.Status(id); st.State == jobs.StateDone {
		t.Skip("job finished before the restart point")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	c1.Drain(ctx)
	cancel()
	srv1.Close()

	c2, srv2 := startCoordinator(t, fastOpts(dir))
	st, ok := c2.Job(id)
	if !ok || st.State != jobs.StateCheckpointed {
		t.Fatalf("restarted coordinator sees %s as %v/%s, want checkpointed", id, ok, st.State)
	}
	recoveredAtLeast := st.CellsDone
	w2 := startWorker(t, srv2.URL)
	defer w2.stop()

	cl2 := &jobs.Client{BaseURL: srv2.URL}
	wctx, wcancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer wcancel()
	fin, err := cl2.Wait(wctx, id, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != jobs.StateDone {
		t.Fatalf("resumed job ended %s: %s", fin.State, fin.Error)
	}
	got, err := cl2.RawResult(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("resumed coordinator result differs from single-daemon result")
	}
	if rec, _ := c2.MetricsSnapshot().CounterAt("fabric/cells_recovered"); rec < int64(recoveredAtLeast) {
		t.Errorf("cells_recovered = %d, want >= %d (journaled before restart)", rec, recoveredAtLeast)
	}
}

// TestFinalizeWaitsForUnjournaledOutcomes pins the ordering between
// ingestOutcomes and maybeFinalize. Outcomes are marked completed under
// the lock but journaled and cached after it is released; until that
// finishes the job must stay open. Finalizing earlier closes the journal
// under the pending appends and marks the job done before its results
// reach the cache, so an immediate warm rerun re-dispatches cells.
func TestFinalizeWaitsForUnjournaledOutcomes(t *testing.T) {
	c, err := NewCoordinator(fastOpts(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	id, err := c.Submit(jobs.JobSpec{Name: "hold", Benchmarks: []string{"atax", "bicg"}, Configs: []string{"baseline"}, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	c.step() // activates the job; with no workers every cell stays pending

	c.mu.Lock()
	a := c.active
	var appends []journalAppend
	for i, cell := range a.jb.spec.Cells {
		res := jobs.CellResult{Bench: cell.Bench, Config: cell.Config, Cycles: int64(100 + i)}
		a.jb.completed[i] = res
		appends = append(appends, journalAppend{journal: a.journal, index: i, attempts: 1, worker: "w", result: &res, cacheKey: CellKey(cell)})
	}
	run := c.holdLocked(appends)
	c.mu.Unlock()

	c.maybeFinalize()
	if st, _ := c.Job(id); st.State != jobs.StateRunning {
		t.Fatalf("job %s while its outcomes were unjournaled, want running", st.State)
	}
	if err := c.appendOutcomes(appends); err != nil {
		t.Fatal(err)
	}
	c.release(run)
	c.maybeFinalize()
	if st, _ := c.Job(id); st.State != jobs.StateDone {
		t.Fatalf("job %s (%s) after its outcomes were journaled, want done", st.State, st.Error)
	}
}

// TestCoordinatorSubmitRejectsRemovedEngineFields: like the single daemon,
// the coordinator answers a submit carrying the removed cell_parallel
// field with 400.
func TestCoordinatorSubmitRejectsRemovedEngineFields(t *testing.T) {
	_, srv := startCoordinator(t, fastOpts(t.TempDir()))
	for _, body := range []string{
		`{"benchmarks":["atax"],"configs":["baseline"],"scale":0.1,"cell_parallel":8}`,
		`{"cells":[{"bench":"atax","config":"baseline","cell_parallel":2,"l2_slices":4}]}`,
	} {
		resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit %s: status %d, want 400", body, resp.StatusCode)
		}
	}
}
