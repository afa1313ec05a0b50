package core

import (
	"testing"

	"repro/internal/sched"
)

// TestSegPoolGetPut exercises the pool directly: shard hit, overflow
// spill, cross-shard scan, and the oversized-segment drop.
func TestSegPoolGetPut(t *testing.T) {
	var p segPool[int]
	p.init(4, 8)
	if len(p.shards) != 4 {
		t.Fatalf("shards = %d, want 4", len(p.shards))
	}

	s := newSegment[int](8)
	s.push(1)
	if !s.readable() {
		t.Fatal("pushed value not readable")
	}
	s.pop()
	p.put(0, s)
	if got := p.get(0); got != s {
		t.Fatal("shard-local get did not return the recycled segment")
	}
	if got := s.head.Load(); got != 0 {
		t.Fatalf("recycled segment head = %d, want 0 (not reset)", got)
	}

	// A segment put on one shard is found by a get on another (via the
	// cross-shard scan once its own shard and the overflow are empty).
	p.put(3, s)
	if got := p.get(1); got != s {
		t.Fatal("cross-shard get did not find the recycled segment")
	}

	// Overflow spill: fill shard 0 beyond its slots, drain through the
	// overflow list.
	segs := map[*segment[int]]bool{}
	for i := 0; i < segShardSlots+4; i++ {
		n := newSegment[int](8)
		segs[n] = true
		p.put(0, n)
	}
	for i := 0; i < segShardSlots+4; i++ {
		g := p.get(0)
		if !segs[g] {
			t.Fatalf("get %d returned a segment that was never put", i)
		}
		delete(segs, g)
	}

	// Oversized segments (WriteSlice, §5.2) are dropped, not pooled.
	p.put(0, newSegment[int](32))
	if g := p.get(0); len(g.buf) != 8 {
		t.Fatalf("pool returned a segment of capacity %d, want the configured 8", len(g.buf))
	}
}

// TestRecycledSegmentForgetsItsLap runs a segment once around its ring
// and a step past, so both sides' cached indices are non-zero, recycles
// it through the pool, and checks it behaves as a fresh segment: the
// consumer sees nothing before the next push, and the producer gets
// exactly segCap slots before full reports true. A reset that kept either
// cached index would let the consumer read slots that hold no value, or
// the producer overwrite values not yet popped.
func TestRecycledSegmentForgetsItsLap(t *testing.T) {
	const segCap = 8
	var p segPool[int]
	p.init(1, segCap)
	s := p.get(0)
	// push's caller must have seen full() report false, and pop's caller
	// readable() report true.
	pop := func() int {
		if !s.readable() {
			t.Fatal("pop on a segment with no readable value")
		}
		return s.pop()
	}
	for i := 0; i <= segCap; i++ {
		if s.full() {
			if got := pop(); got != i-segCap {
				t.Fatalf("lap 1 pop = %d, want %d", got, i-segCap)
			}
			if s.full() {
				t.Fatal("segment still full after a pop")
			}
		}
		s.push(i)
	}
	for s.readable() {
		s.pop()
	}
	p.put(0, s)
	if got := p.get(0); got != s {
		t.Fatal("get did not return the recycled segment")
	}
	if s.readable() {
		t.Fatal("recycled segment shows a readable value before any push")
	}
	pushed := 0
	for ; !s.full(); pushed++ {
		if pushed == segCap {
			t.Fatalf("recycled segment accepts more than its %d slots", segCap)
		}
		s.push(100 + pushed)
	}
	if pushed != segCap {
		t.Fatalf("recycled segment full after %d pushes, want %d", pushed, segCap)
	}
	for i := 0; i < segCap; i++ {
		if got := pop(); got != 100+i {
			t.Fatalf("lap 2 pop %d = %d, want %d", i, got, 100+i)
		}
	}
	if s.readable() {
		t.Fatal("drained recycled segment shows a readable value")
	}
}

// TestSegmentRecyclingThroughQueue drives a queue through several
// segment laps on one worker and checks that the consumer's drain
// recycles segments back to the producer: after the first lap, overflow
// pushes reuse pooled segments instead of allocating.
func TestSegmentRecyclingThroughQueue(t *testing.T) {
	rt := sched.New(1)
	rt.Run(func(f *sched.Frame) {
		q := NewWithCapacity[int](f, 2)
		// Lap 1: fill three segments, drain them — two are drained past
		// and recycled (the open tail stays live).
		for i := 0; i < 6; i++ {
			q.Push(f, i)
		}
		for i := 0; i < 6; i++ {
			if got := q.Pop(f); got != i {
				t.Fatalf("Pop = %d, want %d", got, i)
			}
		}
		pooled := map[*segment[int]]bool{}
		for si := range q.pool.shards {
			sh := &q.pool.shards[si]
			for i := 0; i < sh.n; i++ {
				pooled[sh.free[i]] = true
			}
		}
		if len(pooled) == 0 {
			t.Fatal("no segments recycled after draining past two segments")
		}
		// Lap 2: the next overflow must come from the pool.
		for i := 0; i < 6; i++ {
			q.Push(f, i)
		}
		if tail := q.viewsOf(f).vs.User.Tail; !pooled[tail] {
			t.Fatal("overflow push allocated a fresh segment while recycled ones were pooled")
		}
		for i := 0; i < 6; i++ {
			q.Pop(f)
		}
	})
}

// TestSteadyStateZeroAllocs is the paper's §3.2 claim as a hard
// assertion: a warmed producer/consumer lap over pooled segments
// performs zero heap allocations — push fast path, overflow via the
// pool, pop, and the drain-past recycle all run allocation-free.
func TestSteadyStateZeroAllocs(t *testing.T) {
	rt := sched.New(1)
	rt.Run(func(f *sched.Frame) {
		q := NewWithCapacity[int](f, 8)
		lap := func() {
			for i := 0; i < 64; i++ {
				q.Push(f, i)
			}
			for i := 0; i < 64; i++ {
				q.Pop(f)
			}
		}
		lap() // warm the pool
		if allocs := testing.AllocsPerRun(50, lap); allocs != 0 {
			t.Errorf("steady-state lap allocates %v times per run, want 0", allocs)
		}
	})
}
