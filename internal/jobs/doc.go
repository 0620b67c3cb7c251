// Package jobs is the library under the gputlbd job server: job and cell
// specs, the cell runner, the journal, the result encoding, and the HTTP
// client. A job is a grid of simulation cells (benchmark × named
// configuration, plus scale/seed parameters) submitted as JSON. The
// server that queues, dispatches and journals jobs is internal/fabric's
// Coordinator; its cells run on fabric Workers, in process or remote,
// through RunCell.
//
// The layer's invariants:
//
//   - Durability: each completed cell is appended to a per-job JSONL
//     journal before it counts as done. A crash between appends loses at
//     most the cells that were still in flight; a torn final line
//     (process killed mid-write) is detected and dropped on load, and a
//     record naming a cell outside the spec is an error.
//   - Determinism: a cell is a pure function of its CellSpec, so a
//     resumed job's assembled result is byte-identical to an
//     uninterrupted run's, and to EncodeResult over RunCell in process.
//     The result file is the canonical artifact and is served verbatim
//     over HTTP.
//
// Job lifecycle (Status, State): queued → running → done | failed, with
// checkpointed as the at-rest state of a job whose journal holds some but
// not all cells (a drained or killed run). Checkpointed jobs are resumed
// when a server opens the same journal directory. The Err values are the
// server's submission and result errors.
package jobs
