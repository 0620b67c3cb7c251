// Package engine provides the discrete-event core shared by the timing
// simulator: a cycle clock and a deterministic event queue. Events fire in
// (cycle, priority, insertion) order, so same-cycle events scheduled with
// Schedule fire in insertion order and simulations are bit-reproducible.
//
// The queue is a calendar queue. Events fewer than 4096 cycles ahead of
// the last popped cycle — nearly all of them in the simulator — go in a
// ring of per-cycle FIFO buckets, found through a bitmap of non-empty
// buckets, so scheduling and popping them is O(1). Bucket entries come
// from a pooled node array with a free list, so the steady state allocates
// nothing, which matters because the simulator schedules one or more
// events per issued warp instruction. Events outside the window go in a
// binary heap that stores them by value (container/heap would box every
// event through an interface and allocate it). Pop takes whichever of the
// two heads is earlier.
package engine
