// Command gputlbsim runs one benchmark of the suite under one configuration
// of the simulated GPU and prints the translation and execution statistics.
//
// Examples:
//
//	gputlbsim -bench bfs                      # baseline (Table III)
//	gputlbsim -bench atax -policy share       # the full proposal
//	gputlbsim -bench gemm -pagesize 2m        # huge pages
//	gputlbsim -bench mvt -json                # machine-readable results
//	gputlbsim -trace atax.trace               # replay an exported trace
//	gputlbsim -printconfig                    # show Table III
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"gputlb"
	"gputlb/internal/cliutil"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gputlbsim: ")

	var (
		bench       = flag.String("bench", "", "benchmark to run (one of: "+strings.Join(gputlb.WorkloadNames(), ", ")+")")
		policy      = flag.String("policy", "baseline", "configuration: baseline | sched | part | share")
		scale       = flag.Float64("scale", 1.0, "workload scale factor")
		seed        = flag.Int64("seed", 1, "workload generation seed")
		pagesize    = flag.String("pagesize", "4k", "page size: 4k | 2m")
		compress    = flag.Bool("compress", false, "enable TLB compression (PACT'20 comparator)")
		mech        = flag.String("mech", "", "translation mechanism for both TLB levels: base | subentry | deadblock | largereach (default base)")
		alloc       = flag.String("alloc", "", "UVM frame allocation: firsttouch | contig (default firsttouch; contig feeds -mech largereach)")
		l1entries   = flag.Int("l1entries", 64, "L1 TLB entries per SM")
		printconfig = flag.Bool("printconfig", false, "print the Table III configuration and exit")
		jsonOut     = flag.Bool("json", false, "emit results as JSON")
		tracePath   = flag.String("trace", "", "replay a binary kernel trace instead of building a benchmark")
		configPath  = flag.String("config", "", "load the machine configuration from a JSON file")
		outputs     cliutil.OutputFlags
	)
	outputs.Register(flag.CommandLine)
	flag.Parse()

	if *printconfig {
		fmt.Print(gputlb.Table3())
		return
	}
	if *bench == "" && *tracePath == "" {
		flag.Usage()
		os.Exit(2)
	}

	var cfg gputlb.Config
	switch *policy {
	case "baseline":
		cfg = gputlb.BaselineConfig()
	case "sched":
		cfg = gputlb.SchedConfig()
	case "part":
		cfg = gputlb.PartConfig()
	case "share":
		cfg = gputlb.ShareConfig()
	default:
		log.Fatalf("unknown policy %q", *policy)
	}
	if *configPath != "" {
		data, err := os.ReadFile(*configPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := json.Unmarshal(data, &cfg); err != nil {
			log.Fatalf("parsing %s: %v", *configPath, err)
		}
	}
	cfg.L1TLB.Entries = *l1entries
	cfg.TLBCompression = *compress
	if *mech != "" {
		cfg.TLBMech = *mech
	}
	if *alloc != "" {
		cfg.AllocMode = *alloc
	}

	p := gputlb.DefaultParams()
	p.Scale = *scale
	p.Seed = *seed
	switch *pagesize {
	case "4k":
	case "2m":
		p.PageShift = 21
		cfg.PageSize = gputlb.PageSize2M
	default:
		log.Fatalf("unknown page size %q", *pagesize)
	}

	stopProfiles, err := outputs.Start()
	if err != nil {
		log.Fatal(err)
	}

	var k *gputlb.Kernel
	var as *gputlb.AddressSpace
	name := *bench
	if *tracePath != "" {
		f, ferr := os.Open(*tracePath)
		if ferr != nil {
			log.Fatal(ferr)
		}
		var kerr error
		k, kerr = gputlb.ReadKernelTrace(f)
		f.Close()
		if kerr != nil {
			log.Fatal(kerr)
		}
		name = k.Name + " (trace)"
		as = gputlb.NewAddressSpace(p.PageShift, p.Seed)
	} else {
		var berr error
		k, as, berr = gputlb.Build(*bench, p)
		if berr != nil {
			log.Fatal(berr)
		}
	}

	s, err := gputlb.NewSimulator(cfg, k, as)
	if err != nil {
		log.Fatal(err)
	}
	tracer := outputs.NewTracer()
	if tracer != nil {
		s.SetTracer(tracer, 0)
	}
	res := s.Run()

	// A single run exports its stats Snapshot directly rather than a
	// sweep-shaped StatsDump, so -stats-out bypasses Export here.
	if outputs.StatsOut != "" {
		if err := cliutil.ExportSnapshot(outputs.StatsOut, res.Stats); err != nil {
			log.Fatal(err)
		}
	}
	if outputs.TraceOut != "" {
		if err := cliutil.ExportTrace(outputs.TraceOut, tracer); err != nil {
			log.Fatal(err)
		}
	}
	if err := stopProfiles(); err != nil {
		log.Fatal(err)
	}

	if *jsonOut {
		out := struct {
			Benchmark string
			Policy    string
			Scale     float64
			PageSize  string
			Result    gputlb.Result
		}{name, *policy, *scale, *pagesize, res}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			log.Fatal(err)
		}
		return
	}

	fmt.Printf("benchmark        %s (policy %s, scale %.2f, %s pages)\n", name, *policy, *scale, *pagesize)
	fmt.Printf("execution        %d cycles\n", res.Cycles)
	fmt.Printf("L1 TLB hit rate  %.3f (mean across SMs; %d hits / %d accesses)\n",
		res.L1TLBHitRate, res.L1TLBHits(), res.L1TLBAccesses())
	fmt.Printf("L2 TLB           %.3f hit rate (%d accesses)\n", res.L2TLB.HitRate(), res.L2TLB.Accesses)
	fmt.Printf("page walks       %d (%d UVM first-touch faults)\n", res.Walks, res.Faults)
	fmt.Printf("L1 cache         %.3f hit rate; L2 cache %.3f\n", res.L1Cache.HitRate(), res.L2Cache.HitRate())
	fmt.Printf("instructions     %d issued, %d line requests, %d translation requests\n",
		res.InstsIssued, res.LineRequests, res.PageRequests)
	fmt.Printf("TBs per SM       %v\n", res.TBsPerSM)
	fmt.Printf("NoC stalls       %d; DRAM row hits %d / misses %d\n",
		res.NoCStalls, res.DRAMRowHits, res.DRAMRowMisses)
	fmt.Printf("translation latency histogram (cycles: count):\n")
	for b, c := range res.TranslationLatency {
		if c == 0 {
			continue
		}
		fmt.Printf("  <=2^%-2d %9d\n", b+1, c)
	}
}
