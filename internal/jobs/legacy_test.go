package jobs_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"strings"
	"testing"

	"gputlb/internal/fabric"
	"gputlb/internal/jobs"
	"gputlb/internal/jobs/jobstest"
)

// Journals written before the sharded intra-cell engine was removed may
// carry "cell_parallel" and "l2_slices" in their spec record. The spec
// lines below are in that format, written by hand.
const (
	legacySerialSpec = `{"type":"spec","id":"job-0001","name":"old-serial","spec":{"name":"old-serial","cells":[` +
		`{"bench":"atax","config":"baseline","scale":0.1,"seed":1},` +
		`{"bench":"atax","config":"sched","scale":0.1,"seed":1,"cell_parallel":1,"l2_slices":1}]}}`
	legacyShardedSpec = `{"type":"spec","id":"job-0001","name":"old-sharded","spec":{"name":"old-sharded","cells":[` +
		`{"bench":"atax","config":"baseline","scale":0.1,"seed":1,"cell_parallel":8,"l2_slices":4},` +
		`{"bench":"atax","config":"sched","scale":0.1,"seed":1,"cell_parallel":8,"l2_slices":4}]}}`
	legacySlicedOnlySpec = `{"type":"spec","id":"job-0001","name":"old-sliced","spec":{"name":"old-sliced","cells":[` +
		`{"bench":"atax","config":"baseline","scale":0.1,"seed":1,"l2_slices":2}]}}`
)

// writeLegacyJournal writes a journal of the given lines into a fresh
// directory and returns the directory.
func writeLegacyJournal(t *testing.T, lines ...string) string {
	t.Helper()
	dir := t.TempDir()
	data := strings.Join(lines, "\n") + "\n"
	if err := os.WriteFile(jobs.JournalPath(dir, "job-0001"), []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// cellLine is a journal cell record for index i in the format of the
// server that predates the coordinator: no "worker" field.
func cellLine(t *testing.T, i int, res jobs.CellResult) string {
	t.Helper()
	line, err := json.Marshal(struct {
		Type     string           `json:"type"`
		Index    int              `json:"index,omitempty"`
		Attempts int              `json:"attempts"`
		Result   *jobs.CellResult `json:"result"`
	}{"cell", i, 1, &res})
	if err != nil {
		t.Fatal(err)
	}
	return string(line)
}

// TestLegacyShardedJournalFailsToResume: an unfinished journal whose spec
// asks for the removed sharded engine must not load, and the error must
// name the engine, so its remaining cells never run on the serial engine.
func TestLegacyShardedJournalFailsToResume(t *testing.T) {
	for name, spec := range map[string]string{"sharded": legacyShardedSpec, "sliced": legacySlicedOnlySpec} {
		t.Run(name, func(t *testing.T) {
			first := jobs.CellResult{Bench: "atax", Config: "baseline", Cycles: 1}
			dir := writeLegacyJournal(t, spec, cellLine(t, 0, first))
			_, err := jobs.LoadJournal(jobs.JournalPath(dir, "job-0001"))
			if err == nil || !strings.Contains(err.Error(), "sharded intra-cell engine") {
				t.Fatalf("LoadJournal error = %v, want one naming the sharded intra-cell engine", err)
			}
			if _, err := fabric.NewCoordinator(fabric.CoordinatorOptions{Dir: dir}); err == nil {
				t.Fatal("server resumed a sharded-engine journal")
			}
		})
	}
}

// TestLegacyShardedJournalTerminalLoads: a finished sharded journal resumes
// nothing, so it still loads as a done job.
func TestLegacyShardedJournalTerminalLoads(t *testing.T) {
	dir := writeLegacyJournal(t, legacyShardedSpec, `{"type":"end"}`)
	c, err := fabric.NewCoordinator(fabric.CoordinatorOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if st, ok := c.Job("job-0001"); !ok || st.State != jobs.StateDone {
		t.Fatalf("finished sharded journal = %+v (ok=%v), want done", st, ok)
	}
}

// TestLegacySerialJournalResumes: an unfinished journal in the old
// server's format, with cell_parallel and l2_slices of 0 or 1 — the
// serial engine — resumes, and its result is byte-identical to the
// in-process oracle.
func TestLegacySerialJournalResumes(t *testing.T) {
	spec := jobs.JobSpec{Name: "old-serial", Cells: []jobs.CellSpec{
		{Bench: "atax", Config: "baseline", Scale: 0.1, Seed: 1},
		{Bench: "atax", Config: "sched", Scale: 0.1, Seed: 1},
	}}
	want := jobstest.Result(t, spec)

	first, err := jobs.RunCell(spec.Cells[0])
	if err != nil {
		t.Fatal(err)
	}
	dir := writeLegacyJournal(t, legacySerialSpec, cellLine(t, 0, first))
	c := newServer(t, dir, 0, fabric.WorkerOptions{}, true)
	waitState(t, c, "job-0001", jobs.StateDone)
	got, err := c.Result("job-0001")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("resumed serial journal result differs from the in-process oracle:\n got: %s\nwant: %s", got, want)
	}
}

// TestSubmitRejectsRemovedEngineFields: a submit carrying the removed
// cell_parallel field is an unknown field, answered with 400.
func TestSubmitRejectsRemovedEngineFields(t *testing.T) {
	_, c := newTestServer(t, "", 0, fabric.WorkerOptions{}, false)
	for _, body := range []string{
		`{"benchmarks":["atax"],"configs":["baseline"],"scale":0.1,"cell_parallel":8}`,
		`{"cells":[{"bench":"atax","config":"baseline","cell_parallel":2,"l2_slices":4}]}`,
	} {
		if code := postStatus(t, c, "/jobs", body); code != http.StatusBadRequest {
			t.Errorf("submit %s: status %d, want 400", body, code)
		}
	}
}
