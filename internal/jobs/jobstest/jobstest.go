// Package jobstest holds the reference a job server's results are checked
// against in tests: the job run cell by cell in process, with no server.
package jobstest

import (
	"testing"

	"gputlb/internal/jobs"
)

// Result returns the bytes a job server must return for spec:
// jobs.EncodeResult over in-process jobs.RunCell of the normalized spec's
// cells, an oracle independent of any server.
func Result(t testing.TB, spec jobs.JobSpec) []byte {
	t.Helper()
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	res := jobs.Result{Name: spec.Name, Spec: spec}
	for _, c := range spec.Cells {
		cr, err := jobs.RunCell(c)
		if err != nil {
			t.Fatal(err)
		}
		res.Cells = append(res.Cells, cr)
	}
	out, err := jobs.EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
