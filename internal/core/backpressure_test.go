package core_test

// Backpressure tests for bounded queues (swan.Bounded): the credit
// accounting, the chunked bulk paths, the interaction of a blocked
// producer with queue lifecycle (Recycle, consumer completion), and the
// memory ceiling a bound buys. Everything runs under both scheduler
// policies — a blocked Push routes through Frame.Block, whose capacity
// compensation differs per substrate, and these tests are the pin on
// that coupling. Like the regression tests they drive the queue through
// the public swan API from an external test package.

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/swan"
)

// TestBoundedRoundTrip pins the basic contract: a 1P/1C pipeline over a
// tight bound delivers every value in serial order, and the meter's
// totals and high-water respect the bound.
func TestBoundedRoundTrip(t *testing.T) {
	const total = 1000
	for _, policy := range policies {
		for _, bound := range []int{1, 3, 64} {
			t.Run(fmt.Sprintf("%v/bound=%d", policy, bound), func(t *testing.T) {
				var got []int
				var qs swan.QueueStats
				swan.NewWithPolicy(2, policy).Run(func(f *swan.Frame) {
					q := swan.NewQueueWithCapacity[int](f, 8, swan.Bounded(bound))
					swan.Produce(f, q, func(c *swan.Frame, push func(int)) {
						for i := 0; i < total; i++ {
							push(i)
						}
					})
					swan.Drain(f, q, func(v int) { got = append(got, v) })
					f.Sync()
					qs, _ = q.Metrics()
				})
				if len(got) != total {
					t.Fatalf("drained %d values, want %d", len(got), total)
				}
				for i, v := range got {
					if v != i {
						t.Fatalf("got[%d] = %d; serial order broken", i, v)
					}
				}
				if qs.Pushed != total || qs.Popped != total {
					t.Errorf("meter pushed/popped = %d/%d, want %d/%d", qs.Pushed, qs.Popped, total, total)
				}
				if qs.HighWater < 1 || qs.HighWater > int64(bound) {
					t.Errorf("high-water = %d, want in [1, %d]", qs.HighWater, bound)
				}
				if qs.Occupancy != 0 {
					t.Errorf("occupancy after drain = %d, want 0", qs.Occupancy)
				}
			})
		}
	}
}

// TestBoundedPushSliceLargerThanBound pins the chunked bulk path: one
// PushSlice (and one WriteSlice/CommitWrite) far larger than the whole
// bound must make progress in credit-sized chunks against a concurrent
// consumer rather than deadlocking on an all-or-nothing reservation.
func TestBoundedPushSliceLargerThanBound(t *testing.T) {
	const total = 500
	for _, policy := range policies {
		for _, bound := range []int{1, 7} {
			t.Run(fmt.Sprintf("%v/bound=%d/pushslice", policy, bound), func(t *testing.T) {
				vals := make([]int, total)
				for i := range vals {
					vals[i] = i
				}
				var got []int
				swan.NewWithPolicy(2, policy).Run(func(f *swan.Frame) {
					q := swan.NewQueueWithCapacity[int](f, 16, swan.Bounded(bound))
					f.Spawn(func(c *swan.Frame) {
						pw := q.BindPush(c)
						pw.PushSlice(vals)
					}, swan.Push(q))
					swan.Drain(f, q, func(v int) { got = append(got, v) })
					f.Sync()
				})
				if len(got) != total {
					t.Fatalf("drained %d values, want %d", len(got), total)
				}
				for i, v := range got {
					if v != i {
						t.Fatalf("got[%d] = %d; serial order broken", i, v)
					}
				}
			})
			t.Run(fmt.Sprintf("%v/bound=%d/commitwrite", policy, bound), func(t *testing.T) {
				// CommitWrite accounts credits at publish time, chunked the
				// same way; the write slice itself must fit one segment, so
				// the commit (48) exceeds the bound but not segCap.
				const n = 48
				var got []int
				swan.NewWithPolicy(2, policy).Run(func(f *swan.Frame) {
					q := swan.NewQueueWithCapacity[int](f, 64, swan.Bounded(bound))
					f.Spawn(func(c *swan.Frame) {
						w := q.WriteSlice(c, n)
						for i := range w {
							w[i] = i
						}
						q.CommitWrite(c, n)
					}, swan.Push(q))
					swan.Drain(f, q, func(v int) { got = append(got, v) })
					f.Sync()
				})
				if len(got) != n {
					t.Fatalf("drained %d values, want %d", len(got), n)
				}
				for i, v := range got {
					if v != i {
						t.Fatalf("got[%d] = %d; serial order broken", i, v)
					}
				}
			})
		}
	}
}

// TestBoundedBlockedProducerVsRecycle pins the lifecycle interaction:
// while a producer is blocked on credits, CanRecycle must answer false
// (the producer is live); after the pipeline drains and the queue is
// recycled, the credit budget is rearmed and a second pipeline instance
// runs through the same queue.
func TestBoundedBlockedProducerVsRecycle(t *testing.T) {
	const bound, total = 2, 200
	for _, policy := range policies {
		t.Run(fmt.Sprintf("%v", policy), func(t *testing.T) {
			var rounds [2][]int
			swan.NewWithPolicy(2, policy).Run(func(f *swan.Frame) {
				q := swan.NewQueueWithCapacity[int](f, 4, swan.Bounded(bound))
				for round := 0; round < 2; round++ {
					round := round
					f.Spawn(func(c *swan.Frame) {
						pw := q.BindPush(c)
						for i := 0; i < total; i++ {
							pw.Push(i) // blocks regularly: bound 2, slow consumer
						}
					}, swan.Push(q))
					// The producer outruns the consumer immediately, so it is
					// live (likely parked on credits) here; the owner's probe
					// must see a non-quiescent queue.
					if q.CanRecycle(f) {
						t.Error("CanRecycle = true while a producer is live")
					}
					swan.Drain(f, q, func(v int) { rounds[round] = append(rounds[round], v) })
					f.Sync()
					if !q.CanRecycle(f) {
						t.Fatal("CanRecycle = false after Sync")
					}
					q.Recycle(f) // rearms the credit budget for the next round
				}
			})
			for round, got := range rounds {
				if len(got) != total {
					t.Fatalf("round %d drained %d values, want %d", round, len(got), total)
				}
				for i, v := range got {
					if v != i {
						t.Fatalf("round %d: got[%d] = %d; serial order broken", round, i, v)
					}
				}
			}
		})
	}
}

// TestBoundedConsumerCompletesWithoutDraining pins the case where the
// consumer task stops popping and completes while the producer may be
// parked on credits: the producer must not deadlock, because the
// consumer role falls back to the owner, whose drain keeps crediting
// the budget (consumer serialization hands the role over; the paper's
// rule 3). Every value still arrives, in serial order, split across the
// two consumers.
func TestBoundedConsumerCompletesWithoutDraining(t *testing.T) {
	const bound, total, firstN = 3, 120, 7
	for _, policy := range policies {
		t.Run(fmt.Sprintf("%v", policy), func(t *testing.T) {
			var first, rest []int
			swan.NewWithPolicy(2, policy).Run(func(f *swan.Frame) {
				q := swan.NewQueueWithCapacity[int](f, 4, swan.Bounded(bound))
				f.Spawn(func(c *swan.Frame) {
					pw := q.BindPush(c)
					for i := 0; i < total; i++ {
						pw.Push(i)
					}
				}, swan.Push(q))
				f.Spawn(func(c *swan.Frame) {
					pp := q.BindPop(c)
					for j := 0; j < firstN; j++ {
						first = append(first, pp.Pop())
					}
					// Completes with the producer still pushing (and, with
					// bound 3 << total, almost certainly parked on credits).
				}, swan.Pop(q))
				// Owner inherits the consumer role and drains the rest.
				pp := q.BindPop(f)
				for !pp.Empty() {
					rest = append(rest, pp.Pop())
				}
				f.Sync()
			})
			got := append(append([]int{}, first...), rest...)
			if len(got) != total {
				t.Fatalf("drained %d values, want %d", len(got), total)
			}
			for i, v := range got {
				if v != i {
					t.Fatalf("got[%d] = %d; serial order broken", i, v)
				}
			}
		})
	}
}

// TestBoundedTwoStagePipeline runs a two-queue pipeline where both
// stages are bounded tightly enough that every stage blocks: producer →
// q1 → transform → q2 → drain. Exercised under -race in CI, this is the
// pin on the credit machinery's memory ordering (concurrent acquire /
// release / park / wake on two queues at once).
func TestBoundedTwoStagePipeline(t *testing.T) {
	total := 2000
	if testing.Short() {
		total = 400
	}
	for _, policy := range policies {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%v/workers=%d", policy, workers), func(t *testing.T) {
				var got []int
				var q1s, q2s swan.QueueStats
				swan.NewWithPolicy(workers, policy).Run(func(f *swan.Frame) {
					q1 := swan.NewQueueWithCapacity[int](f, 4, swan.Bounded(2))
					q2 := swan.NewQueueWithCapacity[int](f, 4, swan.Bounded(3))
					swan.Produce(f, q1, func(c *swan.Frame, push func(int)) {
						for i := 0; i < total; i++ {
							push(i)
						}
					})
					swan.TransformSerial(f, q1, q2, func(v int, emit func(int)) { emit(v * 2) })
					swan.Drain(f, q2, func(v int) { got = append(got, v) })
					f.Sync()
					q1s, _ = q1.Metrics()
					q2s, _ = q2.Metrics()
				})
				if len(got) != total {
					t.Fatalf("drained %d values, want %d", len(got), total)
				}
				for i, v := range got {
					if v != 2*i {
						t.Fatalf("got[%d] = %d, want %d; serial order broken", i, v, 2*i)
					}
				}
				if q1s.HighWater > 2 || q2s.HighWater > 3 {
					t.Errorf("high-water (%d, %d) exceeds bounds (2, 3)", q1s.HighWater, q2s.HighWater)
				}
			})
		}
	}
}

// TestBoundedMemoryCeiling is the PR acceptance pin: a 1P/1C pipeline
// with swan.Bounded(64) and a deliberately slow consumer holds the peak
// segment footprint at the bound-derived ceiling. The faithful reading
// is the provider's fresh-allocation counter — the pool's cached count
// is capped by design — which may not exceed the live-chain ceiling
// ceil(bound/segCap)+2 (the +2: the producer's open tail split and the
// consumer's trailing drained segment not yet recycled) plus the one
// construction segment, however fast the producer would like to run.
func TestBoundedMemoryCeiling(t *testing.T) {
	const bound, segCap = 64, 16
	total := 200_000
	if testing.Short() {
		total = 50_000
	}
	for _, policy := range policies {
		t.Run(fmt.Sprintf("%v", policy), func(t *testing.T) {
			rt := swan.NewWithPolicy(2, policy)
			prov := core.ProviderOf(rt)
			var qs swan.QueueStats
			var drained int
			rt.Run(func(f *swan.Frame) {
				q := swan.NewQueueWithCapacity[int](f, segCap, swan.Bounded(bound))
				swan.Produce(f, q, func(c *swan.Frame, push func(int)) {
					for i := 0; i < total; i++ {
						push(i)
					}
				})
				f.Spawn(func(c *swan.Frame) {
					pp := q.BindPop(c)
					for !pp.Empty() {
						pp.Pop()
						drained++
						if drained%bound == 0 {
							c.Sync() // an empty sync: just slows the consumer down
						}
					}
				}, swan.Pop(q))
				f.Sync()
				qs, _ = q.Metrics()
			})
			if drained != total {
				t.Fatalf("drained %d values, want %d", drained, total)
			}
			if qs.HighWater > bound {
				t.Errorf("high-water = %d exceeds bound %d", qs.HighWater, bound)
			}
			ceiling := uint64(bound/segCap + 3)
			if allocs := prov.SegmentAllocs(); allocs > ceiling {
				t.Errorf("segment allocs = %d, want <= %d (bound-derived ceiling)", allocs, ceiling)
			}
		})
	}
}

// TestBoundedSteadyStateZeroAllocs mirrors the unbounded zero-alloc
// guarantee for the bounded path while credits remain: with an ample
// budget the credit accounting is pure atomics and a warmed
// producer/consumer lap allocates nothing.
func TestBoundedSteadyStateZeroAllocs(t *testing.T) {
	swan.New(1).Run(func(f *swan.Frame) {
		q := swan.NewQueueWithCapacity[int](f, 16, swan.Bounded(1024))
		pw := q.BindPush(f)
		pp := q.BindPop(f)
		buf := make([]int, 24)
		lap := func() {
			for i := 0; i < 40; i++ {
				pw.Push(i)
			}
			for i := 0; i < 40; i++ {
				pp.Pop()
			}
			pw.PushSlice(buf)
			for got := 0; got < len(buf); {
				got += pp.PopInto(buf[got:])
			}
		}
		lap() // warm the pool
		if n := testing.AllocsPerRun(50, lap); n != 0 {
			t.Errorf("bounded steady state allocates %.1f/lap, want 0", n)
		}
	})
}

// TestBoundedBlockCountersMeter pins that real backpressure is visible
// in the meter: with bound 1 and a strictly alternating consumer the
// producer must park at least once on a multi-worker runtime, and every
// park has a matching wake.
func TestBoundedBlockCountersMeter(t *testing.T) {
	const total = 2000
	var qs swan.QueueStats
	swan.NewWithPolicy(2, swan.PolicySteal).Run(func(f *swan.Frame) {
		q := swan.NewQueueWithCapacity[int](f, 4, swan.Bounded(1))
		swan.Produce(f, q, func(c *swan.Frame, push func(int)) {
			for i := 0; i < total; i++ {
				push(i)
			}
		})
		swan.Drain(f, q, func(int) {})
		f.Sync()
		qs, _ = q.Metrics()
	})
	if qs.Pushed != total || qs.Popped != total {
		t.Fatalf("meter pushed/popped = %d/%d, want %d/%d", qs.Pushed, qs.Popped, total, total)
	}
	if qs.HighWater != 1 {
		t.Errorf("high-water = %d, want 1 (bound 1)", qs.HighWater)
	}
	// Blocks are scheduling-dependent, but a wake is counted only by the
	// pop that signals a sleeping producer and each sleep is a block.
	if qs.ProducerWakes > qs.ProducerBlocks {
		t.Errorf("producer wakes = %d for %d blocks", qs.ProducerWakes, qs.ProducerBlocks)
	}
}

// TestHighWaterIgnoresUnseenPops is the stale-cache trap of the derived
// budget: producers judge occupancy against a cached copy of popped, so a
// push that would raise the mark must re-read the real counter first.
// Ten values in, ten out, five in again peaks at 10, not 15.
func TestHighWaterIgnoresUnseenPops(t *testing.T) {
	for _, opt := range []swan.QueueOption{swan.Bounded(64), swan.Named("hw.unbounded")} {
		swan.New(1).Run(func(f *swan.Frame) {
			q := swan.NewQueueWithCapacity[int](f, 4, opt)
			pu, po := q.BindPush(f), q.BindPop(f)
			for i := 0; i < 10; i++ {
				pu.Push(i)
			}
			for i := 0; i < 10; i++ {
				po.Pop()
			}
			for i := 0; i < 5; i++ {
				pu.Push(i)
			}
			if qs, _ := q.Metrics(); qs.HighWater != 10 || qs.Occupancy != 5 {
				t.Errorf("bound %d: high-water = %d, occupancy = %d, want 10 and 5", q.Bound(), qs.HighWater, qs.Occupancy)
			}
			for !po.Empty() {
				po.Pop()
			}
		})
	}
}
