package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"gputlb/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite the golden stats snapshot")

// goldenBenchmarks covers one small benchmark per workload family of Table
// II: graph traversal (bfs), graph iteration (pagerank), linear algebra
// (atax), stencil (3dconv), and dynamic programming (nw).
var goldenBenchmarks = []string{"bfs", "pagerank", "atax", "3dconv", "nw"}

// goldenStatsJSON runs every golden benchmark under the baseline config at
// the given parallelism and returns the serialized stats dump.
func goldenStatsJSON(t *testing.T, parallelism int) []byte {
	t.Helper()
	dump := &StatsDump{}
	opt := Options{
		Params:      workloads.Params{PageShift: 12, Seed: 1, Scale: 0.2},
		Benchmarks:  goldenBenchmarks,
		Parallelism: parallelism,
		StatsDump:   dump,
	}
	specs, err := opt.specs()
	if err != nil {
		t.Fatal(err)
	}
	var cells []simCell
	for _, s := range specs {
		cells = append(cells, simCell{s, "baseline", opt.Params, BaselineConfig()})
	}
	if _, err := opt.runCells(cells); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dump.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenStats locks the full stats tree of a deterministic baseline run
// per workload family against testdata/golden_stats.json. Any change to the
// timing model, the workload generators, or the stats registry that shifts a
// single counter shows up here. Refresh intentionally with:
//
//	go test ./internal/experiments -run TestGoldenStats -update
func TestGoldenStats(t *testing.T) {
	got := goldenStatsJSON(t, 1)
	golden := filepath.Join("testdata", "golden_stats.json")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("stats dump diverged from %s (%d vs %d bytes); first difference at byte %d — "+
			"inspect the diff and rerun with -update if intentional",
			golden, len(got), len(want), firstDiff(got, want))
	}
}

// TestGoldenStatsParallelismInvariant: the golden dump must be byte-identical
// whether the cells ran sequentially or eight at a time.
func TestGoldenStatsParallelismInvariant(t *testing.T) {
	seq := goldenStatsJSON(t, 1)
	par := goldenStatsJSON(t, 8)
	if !bytes.Equal(seq, par) {
		t.Errorf("stats dump differs across parallelism (first difference at byte %d)", firstDiff(seq, par))
	}
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
