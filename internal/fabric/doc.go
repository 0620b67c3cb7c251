// Package fabric is the sweep job server: a coordinator expands submitted
// job grids into cell batches and dispatches them over HTTP to
// registered workers, each of which runs internal/jobs' RunCell behind a
// /cells endpoint.
//
// gputlbd's default server is a coordinator with one in-process worker
// (NewLocal) that speaks the same protocol through an in-memory
// transport; "gputlbd -coordinator" is the coordinator alone. Either
// accepts workers joining over the network. The coordinator serves the
// /jobs API that evaluate -daemon and characterize -daemon use, and
// adds:
//
//   - Work distribution with stealing. Cells of the active job are leased
//     to workers in small batches, throttled by each worker's advertised
//     parallelism. When the pending queue drains and a worker sits idle
//     while another still holds unfinished leases, the idle worker is
//     leased the same cells; cells are pure functions of their spec, so
//     whichever copy lands first wins and the duplicate is dropped.
//   - Failure recovery. Workers heartbeat; a worker that misses its lease
//     timeout is dropped and its unfinished cells return to the pending
//     queue. A dispatch that fails outright requeues immediately. Each
//     worker retries a failing cell with backoff and, with a cell
//     timeout, turns a wedged cell into a failed attempt. The
//     coordinator journals every outcome (fsync'd JSONL, with a worker
//     attribution field) before acknowledging it, so a restarted
//     coordinator resumes mid-job.
//   - A content-addressed result cache. Every cell's canonical hash
//     (CellKey) keys a bounded LRU of completed results; overlapping
//     grids across jobs — and across users — are served from cache
//     instead of re-simulated.
//   - Batched result return. Remote workers flush completed cells back
//     through a size + max-wait batcher, so grids of small cells do not
//     pay one HTTP round trip per cell.
package fabric
