package engine

import (
	"math/rand"
	"sort"
	"testing"
)

// Property: under random interleavings of Schedule, SchedulePri and Pop the
// queue pops exactly what a sort over (At, pri, seq) of the pending events
// puts first. The cycle mix covers same-cycle bursts, the calendar window's
// edge on both sides, the far future, cycles before the last pop, and long
// idle gaps that move the window by many ring lengths.
func TestQueueMatchesSortOracle(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q Queue
		var pending []Event
		var last Cycle // latest cycle popped so far: the window start
		pops := 0
		for op := 0; op < 3000; op++ {
			if rng.Intn(100) < 45 && len(pending) > 0 {
				sort.Slice(pending, func(i, j int) bool { return pending[i].before(pending[j]) })
				want := pending[0]
				pending = pending[1:]
				if got := q.NextCycle(); got != want.At {
					t.Fatalf("seed %d pop %d: NextCycle = %d, want %d", seed, pops, got, want.At)
				}
				got := q.Pop()
				if got.At != want.At || got.pri != want.pri || got.seq != want.seq {
					t.Fatalf("seed %d pop %d: popped (%d,%d,%d), want (%d,%d,%d)",
						seed, pops, got.At, got.pri, got.seq, want.At, want.pri, want.seq)
				}
				if got.At > last {
					last = got.At
				}
				pops++
				continue
			}
			at := oracleCycle(rng, last)
			seq := q.nextSeq
			if rng.Intn(2) == 0 {
				q.Schedule(at, func() {})
				pending = append(pending, Event{At: at, seq: seq})
			} else {
				pri := uint64(rng.Intn(4))
				q.SchedulePri(at, pri, func() {})
				pending = append(pending, Event{At: at, pri: pri, seq: seq})
			}
			if q.Len() != len(pending) {
				t.Fatalf("seed %d: Len = %d, want %d", seed, q.Len(), len(pending))
			}
		}
		for q.Len() > 0 { // drain: the tail must come out sorted too
			sort.Slice(pending, func(i, j int) bool { return pending[i].before(pending[j]) })
			got := q.Pop()
			if got.At != pending[0].At || got.pri != pending[0].pri || got.seq != pending[0].seq {
				t.Fatalf("seed %d drain: popped (%d,%d,%d), want (%d,%d,%d)", seed,
					got.At, got.pri, got.seq, pending[0].At, pending[0].pri, pending[0].seq)
			}
			pending = pending[1:]
		}
	}
}

// oracleCycle draws a schedule cycle relative to last, the latest popped
// cycle.
func oracleCycle(rng *rand.Rand, last Cycle) Cycle {
	switch r := rng.Intn(100); {
	case r < 20: // same-cycle burst
		return last
	case r < 50:
		return last + Cycle(rng.Intn(64))
	case r < 65:
		return last + Cycle(1000+rng.Intn(3096))
	case r < 80: // at and around the window edge
		return last + ringSize + Cycle(rng.Intn(5)-2)
	case r < 88: // far future
		return last + Cycle(ringSize+rng.Intn(20*ringSize))
	case r < 95: // in the past
		return last - Cycle(1+rng.Intn(2*ringSize))
	default: // a long idle gap
		return last + Cycle(rng.Intn(1<<30))
	}
}

// The delay mix BenchmarkQueueSchedulePop draws from, measured on the
// Figure 11 sweep: 57% of events are scheduled under 64 cycles ahead, 27%
// from 1k to 4k cycles, 2% beyond 4k, and the rest in between.
func benchDelays(n int) []Cycle {
	rng := rand.New(rand.NewSource(1))
	d := make([]Cycle, n)
	for i := range d {
		switch r := rng.Intn(100); {
		case r < 57:
			d[i] = Cycle(rng.Intn(64))
		case r < 71:
			d[i] = Cycle(64 + rng.Intn(1024-64))
		case r < 98:
			d[i] = Cycle(1024 + rng.Intn(4096-1024))
		default:
			d[i] = Cycle(4096 + rng.Intn(60000))
		}
	}
	return d
}

// BenchmarkQueueSchedulePop is the simulator's steady state: about 825
// pending events, and each pop schedules one successor at the popped cycle
// plus a delay from the measured mix.
func BenchmarkQueueSchedulePop(b *testing.B) {
	const pending = 825
	delays := benchDelays(1 << 16)
	var q Queue
	fn := func() {}
	for i := 0; i < pending; i++ {
		q.Schedule(delays[i], fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := q.Pop()
		q.Schedule(ev.At+delays[i&(len(delays)-1)], fn)
	}
}
