package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// benchmarkFile is the shape of BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

// TestBenchmarkFileMatchesCode keeps BENCHMARK.json and the metric and
// workload lists this program reports from drifting apart.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloadList) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloadList))
	}
	for i, w := range workloadList {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file has %+v, program has %q: %q", i, bf.Workloads[i], w.name, w.why)
		}
	}
	compare := func(kind string, file, code []metric) {
		if len(file) != len(code) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(file), len(code))
		}
		for i := range code {
			if file[i] != code[i] {
				t.Errorf("%s %d: file has %+v, program has %+v", kind, i, file[i], code[i])
			}
			if b := code[i].Better; b != "higher" && b != "lower" {
				t.Errorf("%s %s: better is %q", kind, code[i].Name, b)
			}
		}
	}
	compare("end_to_end", bf.EndToEnd, endToEnd)
	compare("per_layer", bf.PerLayer, layerMetrics())
	for _, l := range perLayer {
		if l.Moves == "" || l.Steady == "" {
			t.Errorf("per-layer metric %s lacks the metric it moves or the workload where it should not", l.Name)
		}
	}
}

// TestWorkloadsEmitEveryMetric runs each workload at minimum size, untraced
// and traced, and checks that every named metric comes out with its unit
// and that no output check failed.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	root := t.TempDir()
	daemonBin := filepath.Join(root, "gputlbd")
	build := exec.Command("go", "build", "-o", daemonBin, "gputlb/cmd/gputlbd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building gputlbd: %v\n%s", err, out)
	}
	for _, w := range workloadList {
		for _, traced := range []bool{false, true} {
			r, err := newRunner(w.name, root, daemonBin, 3, 0, traced, true)
			if err != nil {
				t.Fatal(err)
			}
			w.run(r)
			res := r.result(traced)
			r.cleanup()
			defs := endToEnd
			if traced {
				defs = layerMetrics()
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(defs))
			}
			for _, m := range defs {
				v, ok := res.Metrics[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.name, traced, m.Name, v, m.Unit)
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d failed: %v", w.name, traced, res.Failed, res.Attempted, r.problems)
			}
		}
	}
}
