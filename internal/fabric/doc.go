// Package fabric shards the sweep service across machines: a coordinator
// expands submitted job grids into cell batches and dispatches them over
// HTTP to registered worker daemons, each of which is the single-process
// cell runner from internal/jobs behind a /cells endpoint.
//
// The coordinator serves the exact /jobs API of the single-process
// manager — same routes, same status shapes, same byte-identical result
// artifacts — so evaluate -daemon and characterize -daemon point at a
// coordinator without knowing the difference. Underneath, it adds:
//
//   - Work distribution with stealing. Cells of the active job are leased
//     to workers in small batches, throttled by each worker's advertised
//     parallelism. When the pending queue drains and a worker sits idle
//     while another still holds unfinished leases, the idle worker is
//     leased the same cells; cells are pure functions of their spec, so
//     whichever copy lands first wins and the duplicate is dropped.
//   - Failure recovery. Workers heartbeat; a worker that misses its lease
//     timeout is dropped and its unfinished cells return to the pending
//     queue. A dispatch that fails outright requeues immediately. The
//     coordinator journals every completed cell in the same fsync'd JSONL
//     format as the single-process manager (with a worker attribution
//     field), so a restarted coordinator resumes mid-job.
//   - A content-addressed result cache. Every cell's canonical hash
//     (CellKey) keys a bounded LRU of completed results; overlapping
//     grids across jobs — and across users — are served from cache
//     instead of re-simulated.
//   - Batched result return. Workers flush completed cells back to the
//     coordinator through a size + max-wait batcher, so grids of small
//     cells do not pay one HTTP round trip per cell.
package fabric
