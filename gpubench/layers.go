package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"gputlb"
	"gputlb/internal/cache"
	"gputlb/internal/dram"
	"gputlb/internal/engine"
	"gputlb/internal/fabric"
	"gputlb/internal/graph"
	"gputlb/internal/jobs"
	"gputlb/internal/noc"
	"gputlb/internal/parallel"
	"gputlb/internal/tlb"
	"gputlb/internal/trace"
	"gputlb/internal/vm"
)

// layerInput is what a workload hands the per-layer suite: its own
// benchmarks, parameters and treatment configuration, the stats trees of
// its first pass, the trace-cache activity of that pass, and its cell
// grid for the pool timings.
type layerInput struct {
	benches        []string
	params         gputlb.Params
	cfg            gputlb.Config
	trees          []*gputlb.StatsSnapshot
	cacheHits      int64
	cacheEvictions int64
	shed           int
	// serviceDone is set when the workload itself measured the client-side
	// service timings; otherwise a short probe of jobs measures them.
	serviceDone bool
	// grid runs the workload's cells once on workers pool workers,
	// calling progress after each cell, and returns the cell count.
	grid func(workers int, progress func(done, total int)) (int, error)
}

// runLayers measures every per-layer metric on the workload's own inputs.
func (r *runner) runLayers(in layerInput) {
	end := r.spans.begin("layers")
	defer end()
	r.layer["workloads.cache_hits"] = float64(in.cacheHits)
	r.layer["workloads.cache_evictions"] = float64(in.cacheEvictions)
	r.layer["multi.shed"] = float64(in.shed)
	built := r.buildLayers(in)
	if len(built) == 0 {
		return
	}
	r.replayLayers(built, in.cfg)
	r.simLayers(built[0], in.cfg)
	r.countLayers(in.trees)
	r.poolLayers(in.grid)
	r.serviceLayers(in)
}

// builtKernel is one benchmark built for the layer suite.
type builtKernel struct {
	name  string
	k     *gputlb.Kernel
	proto *gputlb.AddressSpace
}

// graphShapes mirrors the synthetic-graph sizing of the graph benchmarks,
// so graph generation can be timed on its own. buildLayers checks the
// mirror: a kernel built over the mirrored graph must encode to the same
// bytes as the benchmark's own build, or the run counts a failed check.
var graphShapes = map[string]struct {
	nodes, degree int
	locality      float64
	window        int
}{
	"bfs":      {147456, 5, 0.9, 4096},
	"color":    {262144, 4, 0.9, 8192},
	"mis":      {98304, 5, 0.9, 4096},
	"pagerank": {98304, 6, 0.88, 4096},
}

// buildLayers times graph generation, trace build and the trace
// encode/decode round trip of every benchmark of the workload, cold.
func (r *runner) buildLayers(in layerInput) []builtKernel {
	var (
		built                        []builtKernel
		gen, build, enc, dec, nbytes float64
	)
	for _, name := range in.benches {
		runtime.GC()
		end := r.spans.begin("build")
		t := time.Now()
		k, as, err := gputlb.Build(name, in.params)
		d := since(t)
		build += d
		end()
		r.note("workloads.build_s %s: %.4f s", name, d)
		if !r.op(err) {
			continue
		}
		built = append(built, builtKernel{name, k, as})

		end = r.spans.begin("encode")
		var buf bytes.Buffer
		t = time.Now()
		err = gputlb.WriteKernelTrace(&buf, k)
		enc += since(t)
		end()
		if !r.op(err) {
			continue
		}
		encoded := buf.Bytes()
		nbytes += float64(len(encoded))
		end = r.spans.begin("decode")
		t = time.Now()
		back, err := gputlb.ReadKernelTrace(bytes.NewReader(encoded))
		dec += since(t)
		end()
		if r.op(err) {
			r.check(bytes.Equal(encodeKernel(back), encoded), "%s: decoded trace re-encodes differently", name)
		}

		if sh, ok := graphShapes[name]; ok {
			n := max(int(float64(sh.nodes)*in.params.Scale), 2048)
			n = (n + 255) / 256 * 256
			end = r.spans.begin("graph")
			t = time.Now()
			g := graph.GenerateWithLocality(n, sh.degree, sh.locality, sh.window, in.params.Seed)
			gen += since(t)
			end()
			gk, _, err := gputlb.BuildOnGraph(name, g, in.params)
			if r.op(err) {
				r.check(bytes.Equal(encodeKernel(gk), encoded), "graph.generate_s: mirrored %s graph no longer matches the benchmark's own; update graphShapes", name)
			}
		}
	}
	r.layer["graph.generate_s"] = gen
	r.layer["workloads.build_s"] = build
	r.layer["trace.encode_s"] = enc
	r.layer["trace.decode_s"] = dec
	r.layer["trace.bytes"] = nbytes
	return built
}

func encodeKernel(k *gputlb.Kernel) []byte {
	var buf bytes.Buffer
	if err := gputlb.WriteKernelTrace(&buf, k); err != nil {
		return nil
	}
	return buf.Bytes()
}

// streams are a workload's coalesced request streams, in kernel, TB, warp
// and instruction order: what its SMs send to each layer.
type streams struct {
	l1    []l1Req     // SM 0's page requests with their TB slot
	pages []vm.VPN    // every page request (the L2 TLB's stream)
	lines []uint64    // every line request, as a line index
	addrs [][]vm.Addr // per kernel, the first address of each line request
}

type l1Req struct {
	slot int
	vpn  vm.VPN
}

// maxReplay bounds each replayed stream.
func (r *runner) maxReplay() int {
	if r.small {
		return 1 << 12
	}
	return 1 << 18
}

// collectStreams walks the kernels' warps the way the simulator coalesces
// them: TB t runs on SM t mod NumSMs in slot (t / NumSMs) mod its
// occupancy. Each kernel contributes an equal share of the bound.
func collectStreams(kernels []builtKernel, cfg gputlb.Config, limit int) (streams, int) {
	var s streams
	pageShift := cfg.PageShift()
	lineBytes := cfg.L1Cache.LineBytes
	share := limit / len(kernels)
	maxSlots := 1
	var pbuf []vm.VPN
	var lbuf []vm.Addr
	for _, bk := range kernels {
		slots := bk.k.ConcurrentTBsPerSM(cfg)
		maxSlots = max(maxSlots, slots)
		var addrs []vm.Addr
		np, nl := 0, 0
		for t, tb := range bk.k.TBs {
			if np >= share && nl >= share {
				break
			}
			sm, slot := t%cfg.NumSMs, (t/cfg.NumSMs)%slots
			for _, w := range tb.Warps {
				for _, inst := range w.Insts {
					if !inst.IsMem() {
						continue
					}
					pbuf = trace.CoalescePagesInto(pbuf, inst.Addrs, pageShift)
					for _, vpn := range pbuf {
						if np < share {
							s.pages = append(s.pages, vpn)
							np++
						}
						if sm == 0 {
							s.l1 = append(s.l1, l1Req{slot, vpn})
						}
					}
					lbuf = trace.CoalesceLinesInto(lbuf, inst.Addrs, lineBytes)
					for _, line := range lbuf {
						if nl < share {
							s.lines = append(s.lines, uint64(line))
							addrs = append(addrs, line*vm.Addr(lineBytes))
							nl++
						}
					}
				}
			}
		}
		s.addrs = append(s.addrs, addrs)
	}
	return s, maxSlots
}

// perOp runs replay three times and returns the median ns per operation
// and the allocations per operation. Each call builds its own structure,
// so repeats start cold.
func perOp(ops int, replay func()) (ns, allocs float64) {
	var nss []float64
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0 := ms.Mallocs
	for i := 0; i < 3; i++ {
		t := time.Now()
		replay()
		nss = append(nss, float64(time.Since(t).Nanoseconds())/float64(ops))
	}
	runtime.ReadMemStats(&ms)
	return median(nss), float64(ms.Mallocs-m0) / float64(3*ops)
}

// replayLayers times each hardware model on the workload's own streams,
// with the Table III geometry and the workload's index policy.
func (r *runner) replayLayers(kernels []builtKernel, cfg gputlb.Config) {
	end := r.spans.begin("replay")
	defer end()
	s, slots := collectStreams(kernels, cfg, r.maxReplay())
	set := func(name string, ops int, replay func()) {
		if !r.check(ops > 0, "%s: empty replay stream", name) {
			return
		}
		ns, allocs := perOp(ops, replay)
		r.layer[name+"_ns"] = ns
		r.layer[name+"_allocs"] = allocs
	}
	set("tlb.l1_probe", len(s.l1), func() {
		t := tlb.New(cfg.L1TLB, tlb.Options{Policy: cfg.TLBIndexPolicy, Sharing: cfg.SharingMode, Replacement: cfg.TLBReplacement})
		t.ConfigureSlots(slots)
		for _, q := range s.l1 {
			if _, hit, _ := t.Lookup(q.slot, q.vpn); !hit {
				t.Insert(q.slot, q.vpn, vm.PPN(q.vpn))
			}
		}
	})
	set("tlb.l2_probe", len(s.pages), func() {
		t := tlb.New(cfg.L2TLB, tlb.Options{Policy: gputlb.IndexByAddress, Replacement: cfg.TLBReplacement})
		for _, vpn := range s.pages {
			if _, hit, _ := t.Lookup(0, vpn); !hit {
				t.Insert(0, vpn, vm.PPN(vpn))
			}
		}
	})
	set("cache.access", len(s.lines), func() {
		c := cache.New(cfg.L1Cache)
		for _, l := range s.lines {
			c.Access(cache.LineAddr(l))
		}
	})
	set("noc.traverse", len(s.lines), func() {
		x := noc.New(cfg.NumSMs, cfg.MemPartitions, cfg.InterconnectLatency, cfg.NoCServiceCycles)
		for i, l := range s.lines {
			x.Traverse(i%cfg.NumSMs, int(l%uint64(cfg.MemPartitions)), engine.Cycle(i/cfg.NumSMs))
		}
	})
	set("dram.access", len(s.lines), func() {
		d := dram.New(dram.Config{
			Partitions: cfg.MemPartitions, BanksPerPart: cfg.DRAMBanksPerPart, RowBytes: cfg.DRAMRowBytes,
			RowHitCycles: cfg.DRAMRowHitLatency, RowMissCycles: cfg.DRAMLatency, LineBytes: cfg.L1Cache.LineBytes,
		})
		for i, l := range s.lines {
			d.Access(cache.LineAddr(l), engine.Cycle(i/cfg.NumSMs))
		}
	})
	// The event queue holds about one pending event per resident warp;
	// each request schedules one and pops the earliest.
	window := cfg.NumSMs * slots * 8
	nop := func() {}
	set("engine.schedule_pop", len(s.lines), func() {
		var q engine.Queue
		for i, l := range s.lines {
			q.Schedule(engine.Cycle(i/cfg.NumSMs)+engine.Cycle(l%64), nop)
			if q.Len() > window {
				q.Pop()
			}
		}
		for q.Len() > 0 {
			q.Pop()
		}
	})
	touches := 0
	for _, a := range s.addrs {
		touches += len(a)
	}
	set("vm.touch", touches, func() {
		for i, addrs := range s.addrs {
			as := kernels[i].proto.Fork()
			for _, a := range addrs {
				as.Touch(a)
			}
		}
	})
}

// simLayers times the whole simulator on the workload's first kernel.
func (r *runner) simLayers(bk builtKernel, cfg gputlb.Config) {
	end := r.spans.begin("sim")
	defer end()
	runtime.GC()
	t := time.Now()
	s, err := gputlb.NewSimulator(cfg, bk.k, bk.proto.Fork())
	r.layer["sim.new_s"] = since(t)
	if !r.op(err) {
		return
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t = time.Now()
	res := s.Run()
	d := time.Since(t)
	runtime.ReadMemStats(&m1)
	insts := float64(res.InstsIssued)
	if !r.check(insts > 0, "%s: no instructions issued", bk.name) {
		return
	}
	r.layer["sim.ns_per_inst"] = float64(d.Nanoseconds()) / insts
	r.layer["sim.allocs_per_inst"] = float64(m1.Mallocs-m0.Mallocs) / insts
	r.layer["sim.bytes_per_inst"] = float64(m1.TotalAlloc-m0.TotalAlloc) / insts

	reg := s.Registry()
	var snaps []float64
	for i := 0; i < 20; i++ {
		t := time.Now()
		reg.Snapshot()
		snaps = append(snaps, 1000*since(t))
	}
	r.layer["stats.snapshot_ms"] = median(snaps)
}

// countLayers sums the event counts of the pass's stats trees.
func (r *runner) countLayers(trees []*gputlb.StatsSnapshot) {
	c := map[string]int64{}
	for _, t := range trees {
		for p, v := range counters(t) {
			c[p] += v
		}
	}
	r.layer["tlb.l1_hit_rate"] = l1HitRate(c)
	r.layer["tlb.l2_hit_rate"] = ratio(c["sim/l2tlb/hits"], c["sim/l2tlb/accesses"])
	r.layer["tlb.probe_sets"] = float64(sumWhere(c, "sim/sm", "/l1tlb/probe_sets") + c["sim/l2tlb/probe_sets"])
	r.layer["vm.walks"] = float64(c["sim/walks"])
	r.layer["vm.faults"] = float64(c["sim/uvm_faults"])
	r.layer["cache.l1_hit_rate"] = ratio(sumWhere(c, "sim/sm", "/l1cache/hits"), sumWhere(c, "sim/sm", "/l1cache/accesses"))
	r.layer["cache.l2_hit_rate"] = ratio(c["sim/l2cache/hits"], c["sim/l2cache/accesses"])
	r.layer["noc.packets"] = float64(c["sim/noc/packets"])
	r.layer["noc.stalls"] = float64(c["sim/noc/stalls"])
	r.layer["dram.row_hits"] = float64(c["sim/dram/row_hits"])
	r.layer["dram.row_misses"] = float64(c["sim/dram/row_misses"])
	r.layer["sched.picks"] = float64(sumWhere(c, "sim/", "/sched/picks"))
	r.layer["sched.skips"] = float64(sumWhere(c, "sim/", "/sched/skips"))
	r.layer["control.decisions"] = float64(c["sim/control/decisions"])
	r.layer["control.set_moves"] = float64(c["sim/control/set_moves"])
	r.layer["control.sm_moves"] = float64(c["sim/control/sm_moves"])
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// poolLayers runs the workload's grid on every worker and on one, at the
// matching GOMAXPROCS, for the pool's utilisation, tail and speedup.
func (r *runner) poolLayers(grid func(int, func(int, int)) (int, error)) {
	end := r.spans.begin("pool")
	defer end()
	var (
		mu    sync.Mutex
		times []float64
	)
	t0 := time.Now()
	progress := func(int, int) {
		mu.Lock()
		times = append(times, since(t0))
		mu.Unlock()
	}
	cpu0 := cpuSeconds()
	_, err := grid(r.workers, progress)
	wall := since(t0)
	cpu := cpuSeconds() - cpu0
	if !r.op(err) {
		return
	}
	sort.Float64s(times)
	tail := wall
	if n := len(times); n > r.workers {
		tail = times[n-1] - times[n-1-r.workers]
	}
	r.layer["parallel.cpu_util"] = cpu / (float64(r.workers) * wall)
	r.layer["parallel.tail_s"] = tail

	prev := runtime.GOMAXPROCS(1)
	t := time.Now()
	_, err = grid(1, func(int, int) {})
	serial := since(t)
	runtime.GOMAXPROCS(prev)
	if r.op(err) {
		r.layer["parallel.speedup"] = serial / wall
	}
}

// serviceLayers times the service path's pieces on the workload's own
// benchmarks at job scale, and — unless the workload already measured
// them — the client-side timings through a short probe of jobs.
func (r *runner) serviceLayers(in layerInput) {
	end := r.spans.begin("service")
	defer end()
	benches := in.benches[:min(len(in.benches), len(jobBenches))]
	req := r.jobFor(0, benches)
	spec := jobs.JobSpec{Name: req.Name, Benchmarks: req.Benchmarks, Configs: req.Configs, Scale: req.Scale, Seed: req.Seed}
	if !r.op(spec.Normalize()) {
		return
	}

	var runs []float64
	res := jobs.Result{Name: spec.Name, Spec: spec}
	for _, c := range spec.Cells {
		t := time.Now()
		cr, err := jobs.RunCell(c)
		runs = append(runs, 1000*since(t))
		if !r.op(err) {
			return
		}
		res.Cells = append(res.Cells, cr)
	}
	r.layer["jobs.runcell_ms"] = median(runs)

	var encs []float64
	for i := 0; i < 20; i++ {
		t := time.Now()
		_, err := jobs.EncodeResult(res)
		encs = append(encs, 1000*since(t))
		if !r.op(err) {
			return
		}
	}
	r.layer["jobs.encode_result_ms"] = median(encs)

	var keys []float64
	for i := 0; i < 200; i++ {
		c := spec.Cells[i%len(spec.Cells)]
		t := time.Now()
		fabric.CellKey(c)
		keys = append(keys, 1e6*since(t))
	}
	r.layer["fabric.cellkey_us"] = median(keys)

	j, err := jobs.CreateJournal(r.work, "journal-timing", spec.Name, &spec)
	if !r.op(err) {
		return
	}
	var appends []float64
	for i := 0; i < 20; i++ {
		t := time.Now()
		err := j.AppendCell(i%len(res.Cells), 1, "", res.Cells[i%len(res.Cells)])
		appends = append(appends, 1000*since(t))
		if !r.op(err) {
			break
		}
	}
	r.op(j.Close())
	r.layer["jobs.journal_append_ms"] = median(appends)

	if in.serviceDone {
		return
	}
	d, _, err := r.startDaemon("probe")
	if !r.op(err) {
		return
	}
	defer d.stop()
	n := 10
	if r.small {
		n = 2
	}
	// The probe is not the workload's own pass: it runs untraced, so the
	// tracing overhead stays the workload's.
	traced := r.spans
	r.spans = nil
	jts, _, _ := r.jobLoop(d, benches, n, 0)
	r.spans = traced
	if r.check(len(jts) > 0, "service probe: no job completed") {
		r.setJobLayers(jts)
	}
}

// runJobInProcess runs req's cells through the same pool the daemon uses,
// in this process.
func (r *runner) runJobInProcess(req jobRequest, workers int, progress func(int, int)) (int, error) {
	spec := jobs.JobSpec{Name: req.Name, Benchmarks: req.Benchmarks, Configs: req.Configs, Scale: req.Scale, Seed: req.Seed}
	if err := spec.Normalize(); err != nil {
		return 0, err
	}
	_, err := parallel.Map(context.Background(), parallel.Options{Workers: workers, Progress: progress}, len(spec.Cells),
		func(_ context.Context, i int) (jobs.CellResult, error) {
			res, err := jobs.RunCell(spec.Cells[i])
			if err != nil {
				return res, fmt.Errorf("cell %d: %w", i, err)
			}
			return res, nil
		})
	return len(spec.Cells), err
}
