package jobs

import (
	"context"
	"reflect"
	"testing"

	"gputlb/internal/parallel"
)

// TestRunCellParallelParity: a daemon cell returns the same result whether
// it runs alone or beside copies of itself on the job's cell pool, which
// shares the cached workloads between them.
func TestRunCellParallelParity(t *testing.T) {
	cells := []CellSpec{
		{Bench: "bfs", Config: "baseline", Scale: 0.1, Seed: 1},
		{Tenants: []string{"bfs", "atax"}, Config: "multi-dynamic-spatial", Scale: 0.1, Seed: 1},
	}
	for _, cell := range cells {
		want, err := RunCell(cell)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{2, 4} {
			got, err := parallel.Map(context.Background(), parallel.Options{Workers: n}, n,
				func(context.Context, int) (CellResult, error) { return RunCell(cell) })
			if err != nil {
				t.Fatal(err)
			}
			for i, g := range got {
				if !reflect.DeepEqual(g, want) {
					t.Errorf("%s [%s]: copy %d of %d concurrent runs differs from the lone run:\n  lone: %+v\n  copy: %+v",
						cell.Bench, cell.Config, i, n, want, g)
				}
			}
		}
	}
}
