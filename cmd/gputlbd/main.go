// Command gputlbd is the sweep job server. It runs one of two ways:
//
//   - server (default): an HTTP service that accepts experiment-grid
//     jobs (benchmark × configuration cells as JSON), dispatches their
//     cells to workers, and journals every completed cell, so a killed
//     daemon resumes with only the unfinished cells re-run. It is a
//     fabric coordinator with one in-process worker (-parallel runners)
//     joined through an in-memory transport; workers on other hosts may
//     join too, with work-stealing from stragglers, a content-addressed
//     result cache, and re-dispatch of unacknowledged cells when a
//     worker dies. With -coordinator it starts no in-process worker and
//     runs only the cells of workers that join.
//   - -worker -join URL: a fabric worker — registers with a server,
//     heartbeats, accepts POST /cells batches, runs them, and streams
//     outcomes back through a size + max-wait batcher.
//
// Server endpoints: POST /jobs, GET /jobs, GET /jobs/{id},
// GET /jobs/{id}/result, POST /workers, POST /workers/{id}/heartbeat,
// GET /workers, POST /results, GET /healthz, GET /metrics. Workers serve
// POST /cells, GET /healthz, GET /metrics. A full queue sheds
// submissions with 429. SIGINT/SIGTERM drain gracefully; restart with
// the same -journal-dir to resume. See OPERATIONS.md for the full API
// reference and runbook.
//
// Examples:
//
//	gputlbd -journal-dir /var/lib/gputlbd
//	gputlbd -coordinator -addr :8372 -journal-dir /var/lib/gputlbd
//	gputlbd -worker -join http://coord:8372 -addr :8380
//	curl -s localhost:8372/jobs -d '{"name":"fig11","configs":["baseline","sched","sched+part","sched+part+share"]}'
//	curl -s localhost:8372/jobs/job-0001/result
//	curl -s localhost:8372/workers
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"gputlb/internal/fabric"
	"gputlb/internal/jobs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gputlbd: ")

	var (
		addr         = flag.String("addr", ":8372", "listen address")
		journalDir   = flag.String("journal-dir", "gputlbd-journal", "directory for job journals and results (resume state)")
		parallel     = flag.Int("parallel", runtime.GOMAXPROCS(0), "max concurrent simulation cells of a worker (default and -worker modes)")
		queue        = flag.Int("queue", 16, "bounded job queue capacity; beyond it submissions get 429")
		retries      = flag.Int("retries", 3, "max attempts per cell before it fails permanently (default and -worker modes)")
		retryBackoff = flag.Duration("retry-backoff", 100*time.Millisecond, "delay before a cell's first retry (doubles per attempt)")
		cellTimeout  = flag.Duration("cell-timeout", 0, "per-cell attempt timeout (0 = none; default and -worker modes)")
		drainTimeout = flag.Duration("drain-timeout", time.Minute, "max wait for in-flight cells to checkpoint on shutdown")
		injectEvery  = flag.Int("inject-fail-every", 0, "resilience drill: fail every Nth cell attempt once (0 = off; never use in production)")

		coordinator = flag.Bool("coordinator", false, "serve jobs without the in-process worker: only workers that join run cells")
		workerMode  = flag.Bool("worker", false, "run as a fabric worker: execute cell batches for the server at -join")
		join        = flag.String("join", "", "server base URL to register with (-worker mode, required)")
		advertise   = flag.String("advertise", "", "this worker's base URL as the server reaches it (-worker mode; default http://127.0.0.1:<addr port>)")

		batchSize    = flag.Int("batch-size", 4, "cells per dispatch batch (server modes)")
		leaseTimeout = flag.Duration("lease-timeout", 10*time.Second, "silence after which a worker is dropped and its cells re-dispatched (server modes)")
		stealAfter   = flag.Duration("steal-after", 2*time.Second, "lease age past which idle workers steal a copy of a straggler's cell (server modes)")
		cacheCap     = flag.Int("cache-capacity", 4096, "content-addressed result cache capacity in cells (server modes)")
		flushSize    = flag.Int("flush-size", 32, "result batch size that forces a flush to the server (-worker mode)")
		flushWait    = flag.Duration("flush-wait", 50*time.Millisecond, "max buffering delay before a result flush (-worker mode)")
		heartbeat    = flag.Duration("heartbeat", time.Second, "worker heartbeat period; keep well under the server's -lease-timeout (-worker mode)")
	)
	flag.Parse()

	if *coordinator && *workerMode {
		log.Fatal("-coordinator and -worker are mutually exclusive")
	}

	wopt := fabric.WorkerOptions{
		Parallelism:  *parallel,
		MaxAttempts:  *retries,
		RetryBackoff: *retryBackoff,
		CellTimeout:  *cellTimeout,
	}
	if *injectEvery > 0 {
		var n atomic.Int64
		every := int64(*injectEvery)
		log.Printf("fault injection armed: every %d cells fail their first attempt", every)
		wopt.InjectCellError = func(c jobs.CellSpec, attempt int) error {
			if attempt == 1 && n.Add(1)%every == 0 {
				return fmt.Errorf("injected failure (drill, -inject-fail-every=%d)", every)
			}
			return nil
		}
	}

	if *workerMode {
		if *join == "" {
			log.Fatal("-worker requires -join <server URL>")
		}
		adv := *advertise
		if adv == "" {
			_, port, err := net.SplitHostPort(*addr)
			if err != nil {
				log.Fatalf("-advertise required: cannot derive it from -addr %q: %v", *addr, err)
			}
			adv = "http://127.0.0.1:" + port
		}
		wopt.CoordinatorURL, wopt.AdvertiseURL = *join, adv
		wopt.FlushSize, wopt.FlushWait, wopt.HeartbeatEvery = *flushSize, *flushWait, *heartbeat
		w := fabric.NewWorker(wopt)
		if err := w.Start(); err != nil {
			log.Fatal(err)
		}
		log.Printf("worker %s on %s, joined %s as %s (%d runners)", adv, *addr, *join, w.ID(), *parallel)
		serveUntilSignal(*addr, w.Handler(), *drainTimeout, func(context.Context) error {
			w.Close() // finishes in-flight cells and flushes buffered results
			return nil
		})
		return
	}

	copt := fabric.CoordinatorOptions{
		Dir:           *journalDir,
		QueueCapacity: *queue,
		BatchSize:     *batchSize,
		LeaseTimeout:  *leaseTimeout,
		StealAfter:    *stealAfter,
		CacheCapacity: *cacheCap,
	}
	var (
		c   *fabric.Coordinator
		err error
	)
	if *coordinator {
		c, err = fabric.NewCoordinator(copt)
	} else {
		c, err = fabric.NewLocal(copt, wopt)
	}
	if err != nil {
		log.Fatal(err)
	}
	for _, st := range c.Jobs() {
		if st.State == jobs.StateCheckpointed {
			log.Printf("resuming %s (%d/%d cells checkpointed)", st.ID, st.CellsDone, st.Cells)
		}
	}
	c.Start()
	runners := "no in-process worker"
	if !*coordinator {
		runners = fmt.Sprintf("%d in-process runners", *parallel)
	}
	log.Printf("serving on %s (journal dir %s, %d-deep queue, %s)", *addr, *journalDir, *queue, runners)
	serveUntilSignal(*addr, c.Handler(), *drainTimeout, c.Drain)
}

// serveUntilSignal runs the HTTP server until SIGINT/SIGTERM, then shuts
// the listener down and drains the server or worker within drainTimeout.
func serveUntilSignal(addr string, h http.Handler, drainTimeout time.Duration, drain func(context.Context) error) {
	srv := &http.Server{Addr: addr, Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("%v: draining (in-flight cells checkpoint, then exit)", sig)
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
		return
	}

	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if err := drain(ctx); err != nil {
		log.Printf("drain: %v (journal still holds every completed cell)", err)
		os.Exit(1)
	}
	log.Print("drained cleanly; restart with the same -journal-dir to resume")
}
