package engine

import "math/bits"

// Cycle is a point in simulated time, in GPU core clock cycles.
type Cycle int64

// Event is a callback scheduled to run at a specific cycle.
type Event struct {
	At Cycle
	Fn func()

	pri uint64 // tie-break: explicit priority among same-cycle events
	seq int64  // tie-break: FIFO among same-cycle, same-priority events
}

// before is the queue order: earliest cycle first, then priority, then
// insertion order. Schedule leaves every event at priority zero, so plain
// queues order purely by (cycle, insertion) — SchedulePri callers opt into
// the middle key.
func (e Event) before(o Event) bool {
	if e.At != o.At {
		return e.At < o.At
	}
	if e.pri != o.pri {
		return e.pri < o.pri
	}
	return e.seq < o.seq
}

// ringSize is the calendar window in cycles: events fewer than ringSize
// cycles ahead of the last popped cycle land in a per-cycle bucket. It must
// be a power of two and a multiple of 64 (one bitmap word per 64 buckets).
// 4096 covers ~98% of the schedules in the Figure 11 sweep.
const (
	ringSize  = 4096
	ringMask  = ringSize - 1
	ringWords = ringSize / 64
)

// initNodes and initHeap are the first capacities of the node pool and the
// overflow heap: about the simulator's steady-state pending counts, so a
// run grows each once or twice instead of from one element up.
const (
	initNodes = 1024
	initHeap  = 256
)

// bucket is one cycle's FIFO: head and tail are 1-based indices into
// Queue.nodes, zero when the bucket is empty.
type bucket struct{ head, tail int32 }

// node is a pooled bucket entry; next is the 1-based index of the following
// entry in its bucket, or of the next free node when on the free list.
type node struct {
	ev   Event
	next int32
}

// Queue is a deterministic event queue. The zero value is ready to use.
//
// It is a calendar queue with a binary-heap overflow. Events in the window
// [base, base+ringSize), where base is the last popped cycle, go in a ring
// of per-cycle buckets kept in (pri, seq) order; a two-level bitmap of
// non-empty buckets finds the next one. Everything else — the far future,
// and any cycle before base — goes in a value-based binary heap. Pop takes whichever head is earlier in
// (At, pri, seq) order, so the queue pops exactly as one heap over all
// events would.
type Queue struct {
	ring    [ringSize]bucket  // per-cycle FIFOs, indexed by At & ringMask
	bits    [ringWords]uint64 // non-empty buckets
	summary uint64            // non-zero words of bits
	nodes   []node
	free    int32 // 1-based head of the free node list, 0 when empty
	inRing  int   // events in the ring
	next    Cycle // cycle of the earliest ring event, valid when inRing > 0
	base    Cycle // window start: the latest cycle popped so far

	h       []Event // overflow heap
	nextSeq int64
}

// Schedule enqueues fn to run at cycle at. Scheduling in the past (before the
// last popped cycle) is the caller's bug; the queue does not detect it, the
// simulator's Run loop does.
func (q *Queue) Schedule(at Cycle, fn func()) {
	q.push(Event{At: at, Fn: fn, seq: q.nextSeq})
}

// SchedulePri enqueues fn to run at cycle at with an explicit same-cycle
// priority: events at equal cycles run in ascending pri, insertion order
// within equal pri.
func (q *Queue) SchedulePri(at Cycle, pri uint64, fn func()) {
	q.push(Event{At: at, Fn: fn, pri: pri, seq: q.nextSeq})
}

func (q *Queue) push(ev Event) {
	q.nextSeq++
	// One unsigned compare covers base <= At < base+ringSize.
	if uint64(ev.At-q.base) < ringSize {
		q.pushRing(ev)
		return
	}
	if q.h == nil {
		q.h = make([]Event, 0, initHeap)
	}
	q.h = append(q.h, ev)
	q.up(len(q.h) - 1)
}

// pushRing files ev in its cycle's bucket. ev is the newest event, so it
// follows every same-priority entry: a bucket of equal priorities is a
// plain FIFO append, and only a lower priority walks the list.
func (q *Queue) pushRing(ev Event) {
	if q.nodes == nil {
		q.nodes = make([]node, 0, initNodes)
	}
	n := q.free
	if n != 0 {
		q.free = q.nodes[n-1].next
		q.nodes[n-1] = node{ev: ev}
	} else {
		q.nodes = append(q.nodes, node{ev: ev})
		n = int32(len(q.nodes))
	}
	i := int(ev.At) & ringMask
	b := &q.ring[i]
	switch {
	case b.head == 0:
		b.head, b.tail = n, n
		q.bits[i>>6] |= 1 << (i & 63)
		q.summary |= 1 << (i >> 6)
		if q.inRing == 0 || ev.At < q.next {
			q.next = ev.At
		}
	case q.nodes[b.tail-1].ev.pri <= ev.pri:
		q.nodes[b.tail-1].next = n
		b.tail = n
	default:
		var prev int32
		cur := b.head
		for q.nodes[cur-1].ev.pri <= ev.pri {
			prev, cur = cur, q.nodes[cur-1].next
		}
		q.nodes[n-1].next = cur
		if prev == 0 {
			b.head = n
		} else {
			q.nodes[prev-1].next = n
		}
	}
	q.inRing++
}

// Len reports the number of pending events.
func (q *Queue) Len() int { return q.inRing + len(q.h) }

// NextCycle returns the cycle of the earliest pending event. It panics if the
// queue is empty; check Len first.
func (q *Queue) NextCycle() Cycle {
	if q.inRing > 0 {
		if len(q.h) > 0 && q.h[0].At < q.next {
			return q.h[0].At
		}
		return q.next
	}
	if len(q.h) == 0 {
		panic("engine: NextCycle on empty queue")
	}
	return q.h[0].At
}

// Pop removes and returns the earliest event.
func (q *Queue) Pop() Event {
	if q.inRing > 0 {
		head := q.ring[int(q.next)&ringMask].head
		if len(q.h) == 0 || q.nodes[head-1].ev.before(q.h[0]) {
			return q.popRing(head)
		}
	}
	if len(q.h) == 0 {
		panic("engine: Pop on empty queue")
	}
	ev := q.h[0]
	n := len(q.h) - 1
	q.h[0] = q.h[n]
	q.h[n] = Event{} // release the Fn reference
	q.h = q.h[:n]
	if n > 0 {
		q.down(0)
	}
	// ev precedes every ring event, so moving the window start up to it
	// keeps them all inside the window. A past event leaves base alone.
	if ev.At > q.base {
		q.base = ev.At
	}
	return ev
}

// popRing unlinks node n, the head of the earliest bucket.
func (q *Queue) popRing(n int32) Event {
	i := int(q.next) & ringMask
	b := &q.ring[i]
	nd := &q.nodes[n-1]
	ev := nd.ev
	b.head = nd.next
	*nd = node{next: q.free} // release the Fn reference
	q.free = n
	q.inRing--
	q.base = ev.At
	if b.head == 0 {
		b.tail = 0
		w := i >> 6
		q.bits[w] &^= 1 << (i & 63)
		if q.bits[w] == 0 {
			q.summary &^= 1 << w
		}
		if q.inRing > 0 {
			q.next = q.scan(ev.At + 1)
		}
	}
	return ev
}

// scan returns the cycle of the first non-empty bucket at or after from.
// Every ring event lies in [from, from+ringSize), so bucket distance from
// from's slot is cycle distance, and one wrap of the ring sees them all.
func (q *Queue) scan(from Cycle) Cycle {
	i := int(from) & ringMask
	w := i >> 6
	var j int
	if m := q.bits[w] >> (i & 63); m != 0 {
		j = i + bits.TrailingZeros64(m)
	} else {
		later := q.summary &^ (1<<(w+1) - 1)
		if later == 0 {
			later = q.summary // wrap to the lowest word, w's low bits included
		}
		w2 := bits.TrailingZeros64(later)
		j = w2<<6 + bits.TrailingZeros64(q.bits[w2])
	}
	return from + Cycle((j-i)&ringMask)
}

// RunUntil fires every event with At <= limit, in order.
func (q *Queue) RunUntil(limit Cycle) {
	for q.Len() > 0 && q.NextCycle() <= limit {
		q.Pop().Fn()
	}
}

// up restores the heap property from child i toward the root.
func (q *Queue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.h[i].before(q.h[parent]) {
			return
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

// down restores the heap property from parent i toward the leaves.
func (q *Queue) down(i int) {
	n := len(q.h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		least := l
		if r := l + 1; r < n && q.h[r].before(q.h[l]) {
			least = r
		}
		if !q.h[least].before(q.h[i]) {
			return
		}
		q.h[i], q.h[least] = q.h[least], q.h[i]
		i = least
	}
}
