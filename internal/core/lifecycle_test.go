package core

import (
	"testing"

	"repro/internal/sched"
)

// TestRuntimePoolSharedAcrossQueues pins the tentpole property of the
// runtime-wide pool: a segment drained past by one queue is reused by a
// *different* queue of the same runtime, element type and capacity —
// which a per-queue pool can never do.
func TestRuntimePoolSharedAcrossQueues(t *testing.T) {
	rt := sched.New(1)
	rt.Run(func(f *sched.Frame) {
		q1 := NewWithCapacity[int](f, 2)
		q2 := NewWithCapacity[int](f, 2)
		if q1.pool != q2.pool {
			t.Fatal("queues of the same runtime, type and capacity do not share a segment pool")
		}
		// Different capacity (or a different runtime) means a different pool.
		q3 := NewWithCapacity[int](f, 4)
		if q3.pool == q1.pool {
			t.Fatal("queues of different segment capacity share a pool")
		}

		// Drive q1 past two segments so their drained segments land in the
		// shared pool, then check q2's overflow pushes pick them up.
		for i := 0; i < 6; i++ {
			q1.Push(f, i)
		}
		pooled := map[*segment[int]]bool{}
		for i := 0; i < 6; i++ {
			q1.Pop(f)
		}
		for si := range q1.pool.shards {
			sh := &q1.pool.shards[si]
			for i := 0; i < sh.n; i++ {
				pooled[sh.free[i]] = true
			}
		}
		if len(pooled) == 0 {
			t.Fatal("draining q1 recycled no segments into the shared pool")
		}
		for i := 0; i < 4; i++ {
			q2.Push(f, i)
		}
		if tail := q2.viewsOf(f).vs.User.Tail; !pooled[tail] {
			t.Fatal("q2's overflow allocated a fresh segment while q1's recycled ones were pooled")
		}
	})
	rt2 := sched.New(1)
	rt2.Run(func(f *sched.Frame) {
		q := NewWithCapacity[int](f, 2)
		p := poolFor[int](ProviderOf(sched.New(1)), 2)
		if q.pool == p {
			t.Fatal("queues of distinct runtimes share a pool")
		}
	})
}

// TestQueueRecycleReuse drives a queue through several
// create→use→drain→recycle laps and checks that recycling (a) keeps the
// queue fully functional, including spawned producers and consumers and
// the invariant checker, and (b) actually reuses segments instead of
// allocating.
func TestQueueRecycleReuse(t *testing.T) {
	rt := sched.New(2)
	rt.Run(func(f *sched.Frame) {
		q := NewWithCapacity[int](f, 2)
		for lap := 0; lap < 5; lap++ {
			base := lap * 100
			f.Spawn(func(c *sched.Frame) {
				for i := 0; i < 5; i++ {
					q.Push(c, base+i)
				}
			}, Push(q))
			var got []int
			f.Spawn(func(c *sched.Frame) {
				for !q.Empty(c) {
					got = append(got, q.Pop(c))
				}
			}, Pop(q))
			f.Sync()
			for i, v := range got {
				if v != base+i {
					t.Fatalf("lap %d consumed %v, want %d..%d", lap, got, base, base+4)
				}
			}
			if len(got) != 5 {
				t.Fatalf("lap %d consumed %d values, want 5", lap, len(got))
			}
			if !q.CanRecycle(f) {
				t.Fatalf("lap %d: CanRecycle = false after Sync", lap)
			}
			q.Recycle(f)
			q.MustCheckInvariants(f)
		}
	})
}

// TestQueueRecycleZeroAllocs is the churn claim as a hard assertion: a
// warmed use→drain→recycle lap — the shape dedup's per-coarse-chunk
// pipelines repeat thousands of times — performs zero heap allocations.
// The fresh row is the pre-recycling shape: a new queue per lap, which
// the owner keeps attached (frame attachment, sync hook) and which
// strands its open tail segment, so the lap pays the queue structure and
// one segment. It reads 7; the bound is the 8 once recorded for this lap
// plus half an allocation.
func TestQueueRecycleZeroAllocs(t *testing.T) {
	fill := func(f *sched.Frame, q *Queue[int], n int) {
		for i := 0; i < n; i++ {
			q.Push(f, i)
		}
		for !q.Empty(f) {
			q.Pop(f)
		}
	}
	rows := []struct {
		name string
		max  float64
		lap  func(f *sched.Frame) func()
	}{
		{"recycle", 0, func(f *sched.Frame) func() {
			q := NewWithCapacity[int](f, 8)
			return func() { fill(f, q, 24); q.Recycle(f) }
		}},
		{"fresh", 8.5, func(f *sched.Frame) func() {
			return func() { fill(f, NewWithCapacity[int](f, 64), 192) }
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			sched.New(1).Run(func(f *sched.Frame) {
				lap := row.lap(f)
				lap() // warm the shared pool
				if allocs := testing.AllocsPerRun(50, lap); allocs > row.max {
					t.Errorf("%s lap allocates %v times per run, want <= %v", row.name, allocs, row.max)
				}
			})
		})
	}
}

// TestRecycleGuards checks that Recycle refuses unsafe states instead of
// corrupting the queue: non-owner callers, live privilege holders
// (deterministic on the stealing substrate: a spawned child does not run
// until the spawner syncs or a second worker steals it), and undrained
// queues.
func TestRecycleGuards(t *testing.T) {
	mustPanic := func(t *testing.T, want string, fn func()) {
		t.Helper()
		defer func() {
			if r := recover(); r == nil {
				t.Errorf("no panic, want %q", want)
			}
		}()
		fn()
	}
	t.Run("undrained", func(t *testing.T) {
		rt := sched.New(1)
		rt.Run(func(f *sched.Frame) {
			q := NewWithCapacity[int](f, 2)
			q.Push(f, 1)
			mustPanic(t, "Recycle on a non-empty queue", func() { q.Recycle(f) })
			q.Pop(f) // leave the tree clean
		})
	})
	t.Run("live-children", func(t *testing.T) {
		rt := sched.New(1)
		rt.Run(func(f *sched.Frame) {
			q := NewWithCapacity[int](f, 2)
			f.Spawn(func(c *sched.Frame) { q.Push(c, 1) }, Push(q))
			// The child is prepared (registered as a producer) but cannot
			// have run yet: one worker, and we have not synced.
			if q.CanRecycle(f) {
				t.Error("CanRecycle = true while a push child is outstanding")
			}
			mustPanic(t, "Recycle while push-privileged tasks are live", func() { q.Recycle(f) })
			f.Sync()
			q.Pop(f)
		})
	})
	t.Run("non-owner", func(t *testing.T) {
		rt := sched.New(2)
		rt.Run(func(f *sched.Frame) {
			q := NewWithCapacity[int](f, 2)
			f.Spawn(func(c *sched.Frame) {
				mustPanic(t, "only the owning task", func() { q.Recycle(c) })
			}, PushPop(q))
			f.Sync()
		})
	})
}

// TestRecycleRearmsProducerRegistry checks the interaction between the
// two tentpole halves: registering a producer disables the lock-free
// TryPop/ReadSlice miss path, and Recycle re-enables it for the queue's
// next life.
func TestRecycleRearmsProducerRegistry(t *testing.T) {
	rt := sched.New(1)
	rt.Run(func(f *sched.Frame) {
		q := NewWithCapacity[int](f, 2)
		if q.everProducer.Load() {
			t.Fatal("fresh queue reports a registered producer")
		}
		f.Spawn(func(c *sched.Frame) { q.Push(c, 1) }, Push(q))
		if !q.everProducer.Load() {
			t.Fatal("producer registration did not set everProducer")
		}
		f.Sync()
		q.Pop(f)
		q.Recycle(f)
		if q.everProducer.Load() {
			t.Fatal("Recycle did not rearm the never-had-a-producer state")
		}
	})
}
