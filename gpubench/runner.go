package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runner carries one run's settings and collects its metrics, check
// outcomes and (when tracing) spans.
type runner struct {
	name      string // workload
	root      string // checkout root
	daemonBin string // gputlbd binary
	work      string // this run's scratch directory under .bench_build
	seed      int64
	seconds   float64
	small     bool
	workers   int
	spans     *spanLog // nil when tracing is off

	e2e   map[string]float64
	layer map[string]float64

	attempted, failed int
	problems          []string
	notes             []string
}

func newRunner(name, root, daemonBin string, seed int64, seconds float64, traced, small bool) (*runner, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	work := filepath.Join(abs, ".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	r := &runner{
		name: name, root: abs, daemonBin: daemonBin, work: work,
		seed: seed, seconds: seconds, small: small,
		workers: runtime.NumCPU(),
		e2e:     map[string]float64{}, layer: map[string]float64{},
	}
	if traced {
		r.spans = &spanLog{t0: time.Now()}
	}
	return r, nil
}

// cleanup removes the run's scratch directory, writing the span log first
// when tracing.
func (r *runner) cleanup() {
	if r.spans != nil {
		dir := filepath.Join(r.root, ".bench_build", "spans")
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", r.name, r.seed))
		if err := os.MkdirAll(dir, 0o755); err == nil {
			log := map[string]any{"provenance": r.provenance(), "spans": r.spans.spans}
			if data, err := json.Marshal(log); err == nil {
				_ = os.WriteFile(path, data, 0o644) // the span log is a by-product; the metrics are already out
			}
		}
	}
	os.RemoveAll(r.work)
}

// check records one output check.
func (r *runner) check(ok bool, format string, args ...any) bool {
	r.attempted++
	if !ok {
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
	return ok
}

// op records one attempted operation (a cell, grid or job) and its error.
func (r *runner) op(err error) bool {
	if err != nil {
		return r.check(false, "%v", err)
	}
	return r.check(true, "")
}

func (r *runner) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// setupReps is how many times a workload sets up; setup_s is their median.
func (r *runner) setupReps(n int) int {
	if r.small {
		return 1
	}
	return n
}

// timed calls pass once to warm up, then until min more passes ran and
// the next pass would end past seconds by more than half its length.
// Pass 0, the warm-up, fills caches and the heap and gives the reference
// result later passes are checked against; its duration is not reported. pass returns the duration it measured
// itself (so per-pass preparation stays outside the figure). timed returns
// the timed passes' durations and the wall time of the timed phase. When
// tracing, timed passes alternate between traced and untraced, and the
// ratio of their medians is the tracing overhead.
func (r *runner) timed(min int, seconds float64, pass func(i int) (float64, error)) ([]float64, float64) {
	traced := r.spans
	defer func() { r.spans = traced }()
	if traced != nil {
		min = max(min, 2)
	}
	r.spans = nil
	if _, err := pass(0); !r.op(err) {
		return nil, 0
	}
	var durs, on, off []float64
	last := 0.0
	start := time.Now()
	for i := 1; i <= min || since(start)+last/2 < seconds; i++ {
		r.spans = nil
		if traced != nil && i%2 == 1 {
			r.spans = traced
		}
		end := r.spans.begin("pass")
		d, err := pass(i)
		end()
		if !r.op(err) {
			break
		}
		durs = append(durs, d)
		last = d
		if i%2 == 1 {
			on = append(on, d)
		} else {
			off = append(off, d)
		}
	}
	if traced != nil && len(on) > 0 && len(off) > 0 {
		r.layer["bench.tracing_overhead"] = median(on) / median(off)
	}
	return durs, since(start)
}

// since returns the seconds elapsed since t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }

// quantile returns the q-quantile of xs by the nearest-rank rule, or NaN
// for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// setSetup records the median of the set-ups' host seconds.
func (r *runner) setSetup(setups []float64) {
	r.e2e["setup_s"] = median(setups)
	r.note("%d set-ups: %.4g s", len(setups), setups)
}

// setPasses fills the pass-derived end-to-end metrics: durs are the
// passes' durations, cells the simulation cells per pass, wall the timed
// phase's wall time.
func (r *runner) setPasses(durs []float64, cells int, wall float64) {
	if len(durs) == 0 {
		return
	}
	r.e2e["run_s"] = median(durs)
	r.e2e["job_p50_ms"] = 1000 * median(durs)
	r.e2e["job_p90_ms"] = 1000 * quantile(durs, 0.9)
	r.e2e["jobs_per_s"] = float64(len(durs)) / wall
	r.e2e["cells_per_s"] = float64(len(durs)*cells) / wall
	if len(durs) <= 20 {
		r.note("%d passes of %d cells in %.3f s: %.4g s", len(durs), cells, wall, durs)
	} else {
		r.note("%d passes of %d cells in %.3f s: min %.4g s, max %.4g s", len(durs), cells, wall, quantile(durs, 0), quantile(durs, 1))
	}
}

// peakRSSMB reads VmHWM of a process ("self" for this one).
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

func (r *runner) setPeakRSS(pid string) {
	mb, err := peakRSSMB(pid)
	if r.op(err) {
		r.e2e["peak_rss_mb"] = mb
	}
}

// provenance identifies the machine, toolchain and code a result came
// from.
func (r *runner) provenance() map[string]any {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	return map[string]any{
		"workload":      r.name,
		"seed":          r.seed,
		"held_out_seed": heldOutSeed,
		"seconds":       r.seconds,
		"cpu_model":     cpuModel(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"vcs_revision":  rev,
		"source_sha256": sourceDigest(r.root),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the checkout's Go sources and module files, so a
// result names the code it measured even where no VCS metadata exists.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00", rel)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// span is one traced interval, in seconds since the run started. Parent
// indexes the enclosing span, or is -1.
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	Parent int     `json:"parent"`
}

// spanLog keeps a run's spans in memory. Spans nest on one goroutine; a
// nil log records nothing.
type spanLog struct {
	t0    time.Time
	spans []span
	open  []int
}

// begin opens a span and returns the function that closes it.
func (l *spanLog) begin(name string) func() {
	if l == nil {
		return func() {}
	}
	parent := -1
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	idx := len(l.spans)
	l.spans = append(l.spans, span{Name: name, Start: since(l.t0), Parent: parent})
	l.open = append(l.open, idx)
	return func() {
		l.spans[idx].End = since(l.t0)
		l.open = l.open[:len(l.open)-1]
	}
}

// selfTimes sums each span name's self time: its duration minus the part
// its child spans cover.
func (l *spanLog) selfTimes() map[string]float64 {
	self := map[string]float64{}
	for _, s := range l.spans {
		self[s.Name] += s.End - s.Start
		if s.Parent >= 0 {
			self[l.spans[s.Parent].Name] -= s.End - s.Start
		}
	}
	return self
}
