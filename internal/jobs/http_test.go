package jobs_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gputlb/internal/fabric"
	"gputlb/internal/jobs"
	"gputlb/internal/jobs/jobstest"
)

// newTestServer serves a default server (see newServer) over HTTP and
// returns a client for it.
func newTestServer(t *testing.T, dir string, queue int, wopt fabric.WorkerOptions, start bool) (*fabric.Coordinator, *jobs.Client) {
	t.Helper()
	c := newServer(t, dir, queue, wopt, start)
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(srv.Close)
	return c, &jobs.Client{BaseURL: srv.URL, HTTPClient: srv.Client()}
}

func get(t *testing.T, c *jobs.Client, path string) []byte {
	t.Helper()
	resp, err := c.HTTPClient.Get(c.BaseURL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = HTTP %d", path, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestHTTPEndToEnd drives the whole API through the client: submit, poll,
// fetch the result, and check it matches the server's canonical bytes and
// the in-process oracle.
func TestHTTPEndToEnd(t *testing.T) {
	spec := jobs.JobSpec{Name: "http-e2e", Benchmarks: []string{"atax"}, Configs: []string{"baseline", "sched"}, Scale: 0.1}
	want := jobstest.Result(t, spec)
	s, c := newTestServer(t, "", 0, fabric.WorkerOptions{Parallelism: 2}, true)

	id, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	st, err := c.Wait(ctx, id, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != jobs.StateDone {
		t.Fatalf("job = %s (%s), want done", st.State, st.Error)
	}

	viaHTTP, err := c.RawResult(id)
	if err != nil {
		t.Fatal(err)
	}
	canonical, err := s.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(viaHTTP, canonical) {
		t.Error("HTTP result differs from the journaled artifact")
	}
	if !bytes.Equal(viaHTTP, want) {
		t.Error("HTTP result differs from the in-process oracle")
	}

	res, err := c.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	if res.Name != "http-e2e" || len(res.Cells) != 2 {
		t.Errorf("decoded result = name %q, %d cells", res.Name, len(res.Cells))
	}
	for i, cell := range res.Cells {
		if cell.Cycles <= 0 || cell.L1TLBHitRate <= 0 {
			t.Errorf("cell %d has empty results: %+v", i, cell)
		}
	}

	// The listing includes the job.
	var all []jobs.Status
	if err := json.Unmarshal(get(t, c, "/jobs"), &all); err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 || all[0].ID != id {
		t.Errorf("job listing = %+v", all)
	}
}

// TestHTTPQueueSheds429 checks the load-shedding contract over the wire.
func TestHTTPQueueSheds429(t *testing.T) {
	// Not started: the queue cannot drain.
	_, c := newTestServer(t, "", 1, fabric.WorkerOptions{}, false)
	spec := jobs.JobSpec{Benchmarks: []string{"atax"}, Configs: []string{"baseline"}, Scale: 0.1}
	if _, err := c.Submit(spec); err != nil {
		t.Fatalf("first submit: %v", err)
	}
	_, err := c.Submit(spec)
	if err == nil || !strings.Contains(err.Error(), "429") {
		t.Fatalf("second submit = %v, want HTTP 429", err)
	}
}

// TestHTTPResultConflictAndNotFound covers the result endpoint's error
// paths: 409 while a job is unfinished, 404 for unknown jobs.
func TestHTTPResultConflictAndNotFound(t *testing.T) {
	_, c := newTestServer(t, "", 0, fabric.WorkerOptions{}, false) // never runs: stays queued
	id, err := c.Submit(jobs.JobSpec{Benchmarks: []string{"atax"}, Configs: []string{"baseline"}, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RawResult(id); err == nil || !strings.Contains(err.Error(), "409") {
		t.Errorf("unfinished result = %v, want HTTP 409", err)
	}
	if _, err := c.Status("job-9999"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("unknown status = %v, want HTTP 404", err)
	}
	if _, err := c.RawResult("job-9999"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("unknown result = %v, want HTTP 404", err)
	}
}

// postStatus POSTs body to path and returns the status code.
func postStatus(t *testing.T, c *jobs.Client, path, body string) int {
	t.Helper()
	resp, err := c.HTTPClient.Post(c.BaseURL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func TestHTTPSubmitRejectsBadSpecs(t *testing.T) {
	_, c := newTestServer(t, "", 0, fabric.WorkerOptions{}, false)
	for _, body := range []string{
		`{`,         // malformed JSON
		`{"wat":1}`, // unknown field
		`{"benchmarks":["nope"],"configs":["baseline"]}`,     // unknown benchmark
		`{"benchmarks":["atax"],"configs":["not-a-config"]}`, // unknown config
		`{"benchmarks":["atax"]}`,                            // no configs or cells
	} {
		if code := postStatus(t, c, "/jobs", body); code != http.StatusBadRequest {
			t.Errorf("submit %q = HTTP %d, want 400", body, code)
		}
	}
}

// TestHTTPMetricsSurfaceRetries injects failures and checks they appear
// through /metrics in both text and JSON forms, alongside /healthz and
// the trace cache of the in-process worker.
func TestHTTPMetricsSurfaceRetries(t *testing.T) {
	var injected atomic.Bool
	wopt := fabric.WorkerOptions{
		Parallelism:  1,
		MaxAttempts:  2,
		RetryBackoff: time.Millisecond,
		InjectCellError: func(_ jobs.CellSpec, attempt int) error {
			if attempt == 1 && injected.CompareAndSwap(false, true) {
				return errors.New("injected")
			}
			return nil
		},
	}
	_, c := newTestServer(t, "", 0, wopt, true)
	id, err := c.Submit(jobs.JobSpec{Benchmarks: []string{"atax"}, Configs: []string{"baseline"}, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if st, err := c.Wait(ctx, id, 20*time.Millisecond); err != nil || st.State != jobs.StateDone {
		t.Fatalf("wait: %v (state %s)", err, st.State)
	}

	if got := string(get(t, c, "/healthz")); !strings.Contains(got, "ok") {
		t.Errorf("/healthz = %q", got)
	}
	text := string(get(t, c, "/metrics"))
	for _, want := range []string{
		"gputlbd/jobs/cells_retried 1\n",
		"gputlbd/jobs/cells_completed 1\n",
		"gputlbd/jobs/jobs_completed 1\n",
		"gputlbd/trace_cache/entries ",
		"gputlbd/trace_cache/evictions ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q; got:\n%s", want, text)
		}
	}
	var snap map[string]any
	if err := json.Unmarshal(get(t, c, "/metrics?format=json"), &snap); err != nil {
		t.Errorf("/metrics?format=json is not JSON: %v", err)
	}
}

// TestHTTPDaemonRestartServesResumedJob simulates a daemon restart over
// the full HTTP surface: submit against one server, drain it mid-job,
// bring up a second server on the same journal dir, and fetch the
// finished result there.
func TestHTTPDaemonRestartServesResumedJob(t *testing.T) {
	spec := jobs.JobSpec{Name: "restart", Benchmarks: []string{"atax"}, Configs: []string{"baseline", "sched"}, Scale: 0.1}
	want := jobstest.Result(t, spec)
	dir := t.TempDir()
	hook, reached, release := interruptAfter(1)
	c1, cl1 := newTestServer(t, dir, 0, fabric.WorkerOptions{Parallelism: 1, RetryBackoff: time.Minute, InjectCellError: hook}, false)
	c1.Start()
	id, err := cl1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	drainInterrupted(t, c1, reached, release)

	// "Restart" on the same journal directory.
	c2, cl2 := newTestServer(t, dir, 0, fabric.WorkerOptions{Parallelism: 1}, false)
	if st, err := cl2.Status(id); err != nil || st.State != jobs.StateCheckpointed || st.CellsDone != 1 {
		t.Fatalf("restarted server sees %+v (%v), want 1 cell checkpointed", st, err)
	}
	c2.Start()
	t.Cleanup(func() { drain(t, c2) })
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	st, err := cl2.Wait(ctx, id, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != jobs.StateDone {
		t.Fatalf("resumed job = %s (%s), want done", st.State, st.Error)
	}
	got, err := cl2.RawResult(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("resumed result differs from the in-process oracle")
	}
}
