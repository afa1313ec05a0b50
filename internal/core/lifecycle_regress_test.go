package core_test

// Regression tests for the lifecycle corners the soak fuzzer leans on:
// Queue.Recycle probed while a bounded producer is blocked on credits,
// and a runtime torn down and rebuilt with the segment pools carried over
// mid-churn. Both run under -race in
// the CI regression job.

import (
	"testing"

	"repro/internal/core"
	"repro/swan"
)

// TestRegressionRecycleVsBlockedBoundedProducer pins the interaction of
// the Recycle quiescence probe with the credit path: while a producer
// child is blocked mid-burst on a tight bound, CanRecycle must answer
// false (the producer is registered and live), it must keep answering
// false for as long as the producer cannot have finished, and once the
// owner drains the queue and syncs, Recycle must succeed and the rearmed
// queue must carry another full burst.
func TestRegressionRecycleVsBlockedBoundedProducer(t *testing.T) {
	const (
		bound  = 4
		values = 16
	)
	for _, mode := range modes {
		t.Run(mode, func(t *testing.T) {
			newRuntime(t, 4, mode).Run(func(f *swan.Frame) {
				q := swan.NewQueueWithCapacity[int](f, 2, swan.Bounded(bound))
				f.Spawn(func(c *swan.Frame) {
					pu := q.BindPush(c)
					for v := 0; v < values; v++ {
						pu.Push(v) // blocks on credits after the first bound pushes
					}
				}, swan.Push(q))
				for i := 0; i < values; i++ {
					// Until enough credits were freed for the producer to
					// have pushed its last value, it is necessarily still
					// live, so the recycle probe must refuse.
					if i < values-bound && q.CanRecycle(f) {
						t.Errorf("CanRecycle true after %d pops with the producer necessarily live", i)
					}
					if got := q.Pop(f); got != i {
						t.Errorf("pop %d = %d, want %d", i, got, i)
					}
				}
				f.Sync()
				if !q.CanRecycle(f) {
					t.Fatalf("CanRecycle false after drain and sync")
				}
				q.Recycle(f)
				// The rearmed queue must have its full credit budget and
				// the never-had-a-producer fast path back: push another
				// blocking burst through it.
				f.Spawn(func(c *swan.Frame) {
					pu := q.BindPush(c)
					for v := 0; v < values; v++ {
						pu.Push(100 + v)
					}
				}, swan.Push(q))
				for i := 0; i < values; i++ {
					if got := q.Pop(f); got != 100+i {
						t.Errorf("post-recycle pop %d = %d, want %d", i, got, 100+i)
					}
				}
				f.Sync()
			})
		})
	}
}

// churn runs one producer/consumer pipeline cycle on rt — two bursts of
// values through one queue, recycled in between — and fails the test on
// any wrong value. With ahead set the producer finishes each burst before
// the consumer starts popping, so the chain grows to the burst's full
// length: the pool's worst case for that burst size, whatever the
// schedule.
func churn(t *testing.T, rt *swan.Runtime, tag string, values int, ahead bool) {
	t.Helper()
	rt.Run(func(f *swan.Frame) {
		q := swan.NewQueueWithCapacity[int](f, 8)
		for round := 0; round < 2; round++ {
			base := round * 1000
			f.Spawn(func(c *swan.Frame) {
				pu := q.BindPush(c)
				for v := 0; v < values; v++ {
					pu.Push(base + v)
				}
			}, swan.Push(q))
			if ahead {
				f.Sync()
			}
			for v := 0; v < values; v++ {
				if got := q.Pop(f); got != base+v {
					t.Errorf("%s: round %d pop %d = %d, want %d", tag, round, v, got, base+v)
					return
				}
			}
			f.Sync()
			q.Recycle(f)
		}
	})
}

// TestRegressionRebuildMidChurn tears a runtime down mid-churn and
// rebuilds it with CarryProvider: the rebuilt runtime must observe the
// same provider (recycling gauges continue, the pool audit balance spans
// the rebuild) and its warm pool must serve the same churn with no more
// fresh allocations than the first runtime needed. How many segments a
// churn needs depends on how far its producer gets ahead of its consumer,
// so the first runtime's churn is made the worst case — producer fully
// ahead, and a few segments longer than the second's — which leaves the
// carried pool holding more than the second churn can need under any
// schedule: the rebuilt runtime must allocate nothing at all.
func TestRegressionRebuildMidChurn(t *testing.T) {
	rtA := swan.New(4)
	prov := core.ProviderOf(rtA)
	allocs0 := prov.SegmentAllocs()
	const values, slack = 500, 4 * 8 // the second churn's burst; four segments more for the first
	churn(t, rtA, "before rebuild", values+slack, true)
	allocsA := prov.SegmentAllocs() - allocs0
	if allocsA < (values+slack)/8 {
		t.Fatalf("first runtime allocated %d fresh segments, want a full chain of at least %d",
			allocsA, (values+slack)/8)
	}
	recycledA := prov.RecycledQueues()

	rtB := swan.New(4)
	if core.CarryProvider(rtA, rtB) != prov {
		t.Fatal("CarryProvider did not attach the old provider to the rebuilt runtime")
	}
	if got := core.ProviderOf(rtB); got != prov {
		t.Fatalf("rebuilt runtime resolved a different provider: %p vs %p", got, prov)
	}
	churn(t, rtB, "after rebuild", values, false)
	allocsB := prov.SegmentAllocs() - allocs0 - allocsA
	if allocsB != 0 {
		t.Errorf("rebuilt runtime allocated %d fresh segments with %d pooled by the first — pool not carried",
			allocsB, allocsA)
	}
	if got := prov.RecycledQueues(); got != recycledA+2 {
		t.Errorf("recycled-queue gauge %d after rebuild, want %d (continuity across rebuild)",
			got, recycledA+2)
	}
}
