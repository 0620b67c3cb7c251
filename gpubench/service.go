package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gputlb"
	"gputlb/internal/jobs"
)

// Service workload inputs: each job is these benchmarks under these two
// configurations at jobScale; the seed advances per job.
var (
	jobBenches = []string{"bfs", "atax", "3dconv", "nw"}
	jobConfigs = []string{"baseline", "sched+part+share"}
)

const (
	jobScale  = 0.05
	minJobs   = 100 // so job_p90_ms has at least ten samples beyond it
	pollEvery = time.Millisecond
	// healthEvery is finer than pollEvery because the daemon answers
	// /healthz about 3 ms after exec: a 1 ms step would dominate setup_s.
	healthEvery = 100 * time.Microsecond
	daemonStart = 20 * time.Second
)

// daemon is one gputlbd process on loopback. exited is closed once the
// process has been waited for.
type daemon struct {
	cmd    *exec.Cmd
	exited chan struct{}
	base   string
	hc     *http.Client
	log    *os.File
}

// startDaemon launches gputlbd on a free loopback port with a fresh
// journal directory and returns once /healthz answers, with the seconds
// that took.
func (r *runner) startDaemon(tag string) (*daemon, float64, error) {
	if r.daemonBin == "" {
		return nil, 0, errors.New("no gputlbd binary given (-gputlbd)")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := ln.Addr().String()
	ln.Close()
	dir := filepath.Join(r.work, "journal-"+tag)
	logf, err := os.Create(filepath.Join(r.work, "gputlbd-"+tag+".log"))
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{
		base: "http://" + addr,
		// One client, one connection: the closed loop never has two
		// requests in flight.
		hc:     &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
		log:    logf,
		exited: make(chan struct{}),
	}
	d.cmd = exec.Command(r.daemonBin, "-addr", addr, "-journal-dir", dir,
		"-parallel", strconv.Itoa(r.workers))
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	// The daemon dies with the benchmark, even if the benchmark is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t := time.Now()
	if err := d.cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("starting gputlbd: %w", err)
	}
	go func() {
		_ = d.cmd.Wait() // the exit status after SIGTERM carries no information
		close(d.exited)
	}()
	for {
		resp, err := d.hc.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, since(t), nil
			}
		}
		select {
		case <-d.exited:
			d.stop()
			return nil, 0, fmt.Errorf("gputlbd on %s exited before answering /healthz; see its log %s", addr, logf.Name())
		case <-time.After(healthEvery):
		}
		if time.Since(t) > daemonStart {
			d.stop()
			return nil, 0, fmt.Errorf("gputlbd on %s not healthy after %v", addr, daemonStart)
		}
	}
}

// stop terminates the daemon and waits for it to exit.
func (d *daemon) stop() {
	d.hc.CloseIdleConnections()
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // an already-exited daemon is fine
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
	d.log.Close()
}

func (d *daemon) pid() string { return strconv.Itoa(d.cmd.Process.Pid) }

// do sends one request and returns the status code and body.
func (d *daemon) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := d.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// metrics reads the daemon's flat "path value" metrics.
func (d *daemon) metrics() (map[string]float64, error) {
	code, body, err := d.do("GET", "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %d", code)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), " "); ok {
			if f, err := strconv.ParseFloat(v, 64); err == nil {
				out[k] = f
			}
		}
	}
	return out, nil
}

// jobRequest is the POST /jobs body of OPERATIONS.md.
type jobRequest struct {
	Name       string   `json:"name"`
	Benchmarks []string `json:"benchmarks"`
	Configs    []string `json:"configs"`
	Scale      float64  `json:"scale"`
	Seed       int64    `json:"seed"`
}

// jobTiming is one job as the client saw it, in seconds.
type jobTiming struct {
	total, submit, queueWait, result float64
}

// runJob submits one job, polls it to completion and fetches the result
// bytes.
func (r *runner) runJob(d *daemon, req jobRequest) (jobTiming, []byte, error) {
	var jt jobTiming
	body, err := json.Marshal(req)
	if err != nil {
		return jt, nil, err
	}
	t0 := time.Now()

	end := r.spans.begin("submit")
	code, resp, err := d.do("POST", "/jobs", body)
	end()
	if err != nil {
		return jt, nil, err
	}
	if code != http.StatusAccepted {
		return jt, nil, fmt.Errorf("POST /jobs: %d %s", code, bytes.TrimSpace(resp))
	}
	var sub struct{ ID string }
	if err := json.Unmarshal(resp, &sub); err != nil {
		return jt, nil, fmt.Errorf("POST /jobs reply: %w", err)
	}
	jt.submit = since(t0)

	end = r.spans.begin("poll")
	var state string
	for {
		code, resp, err := d.do("GET", "/jobs/"+sub.ID, nil)
		if err != nil {
			end()
			return jt, nil, err
		}
		var st struct{ State, Error string }
		if code != http.StatusOK || json.Unmarshal(resp, &st) != nil {
			end()
			return jt, nil, fmt.Errorf("GET /jobs/%s: %d %s", sub.ID, code, bytes.TrimSpace(resp))
		}
		if st.State != "queued" && jt.queueWait == 0 {
			jt.queueWait = since(t0) - jt.submit
		}
		if st.State == "done" || st.State == "failed" {
			state = st.State + " " + st.Error
			break
		}
		time.Sleep(pollEvery)
	}
	end()
	if !strings.HasPrefix(state, "done") {
		return jt, nil, fmt.Errorf("job %s ended %s", sub.ID, state)
	}

	tr := time.Now()
	end = r.spans.begin("result")
	code, res, err := d.do("GET", "/jobs/"+sub.ID+"/result", nil)
	end()
	if err != nil {
		return jt, nil, err
	}
	if code != http.StatusOK {
		return jt, nil, fmt.Errorf("GET /jobs/%s/result: %d", sub.ID, code)
	}
	jt.result = since(tr)
	jt.total = since(t0)
	return jt, res, nil
}

// jobFor is job i of the run: the seed advances per job, so no two jobs
// of a run simulate the same cells.
func (r *runner) jobFor(i int, benches []string) jobRequest {
	return jobRequest{
		Name:       fmt.Sprintf("gpubench-%d", i),
		Benchmarks: benches,
		Configs:    jobConfigs,
		Scale:      jobScale,
		Seed:       r.seed*1_000_000 + int64(i),
	}
}

// jobLoop runs the closed loop: one client submits job i+1 only after job
// i's result arrived, until seconds have passed and at least n jobs ran.
// It returns per-job timings, the wall time and job 0's result bytes.
func (r *runner) jobLoop(d *daemon, benches []string, n int, seconds float64) ([]jobTiming, float64, []byte) {
	var (
		jts   []jobTiming
		first []byte
	)
	_, wall := r.timed(n, seconds, func(i int) (float64, error) {
		jt, res, err := r.runJob(d, r.jobFor(i, benches))
		if err != nil {
			return 0, err
		}
		if i == 0 {
			first = res
		} else {
			jts = append(jts, jt)
		}
		return jt.total, nil
	})
	return jts, wall, first
}

// setJobLayers records the client-side service timings.
func (r *runner) setJobLayers(jts []jobTiming) {
	var sub, wait, res []float64
	for _, jt := range jts {
		sub = append(sub, 1000*jt.submit)
		wait = append(wait, 1000*jt.queueWait)
		res = append(res, 1000*jt.result)
	}
	r.layer["jobs.submit_ms"] = median(sub)
	r.layer["jobs.queue_wait_ms"] = median(wait)
	r.layer["jobs.result_ms"] = median(res)
}

// runService is the closed-loop job workload against a gputlbd the
// benchmark starts itself.
func runService(r *runner) {
	var (
		setups []float64
		d      *daemon
	)
	for i := 0; i < r.setupReps(21); i++ {
		end := r.spans.begin("setup")
		dd, secs, err := r.startDaemon(strconv.Itoa(i))
		end()
		if !r.op(err) {
			return
		}
		setups = append(setups, secs)
		if d != nil {
			d.stop()
		}
		d = dd
	}
	defer d.stop()
	r.setSetup(setups)

	n, seconds := minJobs, r.seconds
	if r.small {
		n, seconds = 2, 0
	}
	before, err := d.metrics()
	if !r.op(err) {
		return
	}
	jts, wall, first := r.jobLoop(d, jobBenches, n, seconds)
	after, err := d.metrics()
	if !r.op(err) {
		return
	}
	r.setPeakRSS(d.pid())
	durs := make([]float64, len(jts))
	for i, jt := range jts {
		durs[i] = jt.total
	}
	cells := len(jobBenches) * len(jobConfigs)
	r.setPasses(durs, cells, wall)
	if first == nil {
		return
	}

	// Repeat: job 0 again must give the same bytes.
	_, again, err := r.runJob(d, r.jobFor(0, jobBenches))
	if r.op(err) {
		r.check(bytes.Equal(again, first), "service-jobs: resubmitted job 0 returned different bytes")
	}
	trees := r.checkJob(r.jobFor(0, jobBenches), first)

	if r.spans != nil {
		delta := func(k string) int64 { return int64(after["gputlbd/"+k] - before["gputlbd/"+k]) }
		ev := delta("trace_cache/evictions")
		builds := delta("trace_cache/entries") + ev
		r.setJobLayers(jts)
		r.runLayers(layerInput{
			benches: jobBenches, params: jobParams(r.jobFor(0, jobBenches)), cfg: gputlb.ShareConfig(),
			trees: trees, cacheHits: delta("jobs/cells_completed") - builds, cacheEvictions: ev,
			serviceDone: true,
			grid: func(workers int, progress func(int, int)) (int, error) {
				return r.runJobInProcess(r.jobFor(0, jobBenches), workers, progress)
			},
		})
	}
}

func jobParams(req jobRequest) gputlb.Params {
	p := gputlb.DefaultParams()
	p.Scale, p.Seed = req.Scale, req.Seed
	return p
}

// inProcessResult renders what the daemon must return for req: the
// canonical encoding of jobs.RunCell over the normalized spec's cells.
func inProcessResult(req jobRequest) ([]byte, error) {
	spec := jobs.JobSpec{Name: req.Name, Benchmarks: req.Benchmarks, Configs: req.Configs, Scale: req.Scale, Seed: req.Seed}
	if err := spec.Normalize(); err != nil {
		return nil, err
	}
	res := jobs.Result{Name: spec.Name, Spec: spec}
	for _, c := range spec.Cells {
		cr, err := jobs.RunCell(c)
		if err != nil {
			return nil, err
		}
		res.Cells = append(res.Cells, cr)
	}
	return jobs.EncodeResult(res)
}

// checkJob checks job 0's result bytes against an in-process run of the
// same cells, simulates the cells through gputlb for their stats trees
// (checked for conservation and returned), and records the simulated
// end-to-end results.
func (r *runner) checkJob(req jobRequest, got []byte) []*gputlb.StatsSnapshot {
	want, err := inProcessResult(req)
	if r.op(err) {
		r.check(bytes.Equal(got, want), "service-jobs: job 0 result differs from jobs.EncodeResult over in-process jobs.RunCell")
	}
	var res struct {
		Cells []struct {
			Bench        string  `json:"bench"`
			Config       string  `json:"config"`
			Cycles       int64   `json:"cycles"`
			L1TLBHitRate float64 `json:"l1_tlb_hit_rate"`
			InstsIssued  int64   `json:"insts_issued"`
		} `json:"cells"`
	}
	if !r.op(json.Unmarshal(got, &res)) {
		return nil
	}
	configs := map[string]gputlb.Config{"baseline": gputlb.BaselineConfig(), "sched+part+share": gputlb.ShareConfig()}
	p := jobParams(req)
	var (
		trees          []*gputlb.StatsSnapshot
		cycles         int64
		hits           []float64
		base           = map[string]int64{}
		norm, speedups []float64
	)
	for _, c := range res.Cells {
		k, as, err := gputlb.Build(c.Bench, p)
		if !r.op(err) {
			continue
		}
		sim, err := gputlb.Run(configs[c.Config], k, as)
		if !r.op(err) {
			continue
		}
		cell := "service-jobs " + c.Bench + "/" + c.Config
		r.checkKernelCell(cell, sim.Stats, k)
		r.check(int64(sim.Cycles) == c.Cycles && c.InstsIssued == instCount(k),
			"%s: daemon reports %d cycles and %d insts, in-process run %d and kernel %d",
			cell, c.Cycles, c.InstsIssued, sim.Cycles, instCount(k))
		trees = append(trees, sim.Stats)
		cycles += c.Cycles
		if c.Config == "baseline" {
			base[c.Bench] = c.Cycles
			continue
		}
		hits = append(hits, c.L1TLBHitRate)
		if b := base[c.Bench]; b > 0 {
			norm = append(norm, float64(c.Cycles)/float64(b))
			speedups = append(speedups, float64(b)/float64(c.Cycles))
		}
	}
	r.setSim(cycles, mean(hits), geomean(norm), mean(speedups))
	return trees
}
