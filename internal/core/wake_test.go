package core

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sched"
)

// The wake/park protocol (wakeConsumer, flowState.release): a parked side
// is signalled once per park, never missed, and parks without allocating.

// pollStat spins — yielding, so it works on one CPU — until pred holds
// for q's meter. It is called from task bodies, so after 20 s it panics:
// the panic cancels the run and Run re-raises it on the test goroutine.
func pollStat[T any](q *Queue[T], what string, pred func(QueueStat) bool) QueueStat {
	deadline := time.Now().Add(20 * time.Second)
	for {
		s, _ := q.Metrics()
		if pred(s) {
			return s
		}
		if time.Now().After(deadline) {
			panic(fmt.Sprintf("%s: never happened; meter %+v", what, s))
		}
		runtime.Gosched()
	}
}

// TestWakeOncePerPark pins the meter identity the protocol gives: a wake
// is counted by the one push (pop) that signals a sleeper and a block is
// one sleep, so wakes ≤ blocks — both when every element finds the other
// side parked and when a million elements stream past it flat out. Before
// the protocol, a push took consMu for as long as the woken consumer had
// not yet run, and wakes ran at hundreds per thousand elements.
func TestWakeOncePerPark(t *testing.T) {
	const parks = 1000
	flat := 1_000_000
	if testing.Short() || raceEnabled {
		flat = 100_000
	}

	t.Run("consumer", func(t *testing.T) {
		err := sched.New(2).Run(func(f *sched.Frame) {
			q := NewWithCapacity[int](f, 64, Named("wake.cons"))
			f.Spawn(func(c *sched.Frame) {
				pu := q.BindPush(c)
				// Paced: each push waits until the consumer has taken the
				// previous one and sleeps again, so every push must signal.
				var s QueueStat
				for i := 0; i <= parks; i++ {
					slept := s.ConsumerBlocks
					s = pollStat(q, "consumer park", func(s QueueStat) bool {
						return s.Popped == uint64(i) && s.ConsumerBlocks > slept
					})
					if i < parks {
						pu.Push(i)
					}
				}
				if s.ConsumerWakes < parks || s.ConsumerWakes > s.ConsumerBlocks {
					t.Errorf("paced: %d wakes for %d blocks over %d parks, want parks ≤ wakes ≤ blocks",
						s.ConsumerWakes, s.ConsumerBlocks, parks)
				}
				for i := 0; i < flat; i++ {
					pu.Push(i)
				}
			}, Push(q))
			f.Spawn(func(c *sched.Frame) {
				po := q.BindPop(c)
				for !po.Empty() {
					po.Pop()
				}
			}, Pop(q))
			f.Sync()
			s, _ := q.Metrics()
			if s.ConsumerWakes > s.ConsumerBlocks {
				t.Errorf("flat out: %d wakes for %d blocks", s.ConsumerWakes, s.ConsumerBlocks)
			}
			if s.Popped != uint64(parks+flat) {
				t.Errorf("popped %d of %d", s.Popped, parks+flat)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})

	t.Run("producer", func(t *testing.T) {
		err := sched.New(2).Run(func(f *sched.Frame) {
			q := NewWithCapacity[int](f, 64, Bounded(1), Named("wake.prod"))
			f.Spawn(func(c *sched.Frame) {
				pu := q.BindPush(c)
				for i := 0; i < parks+flat/10; i++ {
					pu.Push(i)
				}
			}, Push(q))
			f.Spawn(func(c *sched.Frame) {
				po := q.BindPop(c)
				// Paced: each pop waits until the producer has refilled the
				// one slot and sleeps again, so every pop must signal.
				var s QueueStat
				for i := 0; i <= parks; i++ {
					slept := s.ProducerBlocks
					s = pollStat(q, "producer park", func(s QueueStat) bool {
						return s.Pushed == uint64(i+1) && s.ProducerBlocks > slept
					})
					if i < parks {
						po.Pop()
					}
				}
				if s.ProducerWakes < parks || s.ProducerWakes > s.ProducerBlocks {
					t.Errorf("paced: %d wakes for %d blocks over %d parks, want parks ≤ wakes ≤ blocks",
						s.ProducerWakes, s.ProducerBlocks, parks)
				}
				for !po.Empty() {
					po.Pop()
				}
			}, Pop(q))
			f.Sync()
			s, _ := q.Metrics()
			if s.ProducerWakes > s.ProducerBlocks {
				t.Errorf("flat out: %d wakes for %d blocks", s.ProducerWakes, s.ProducerBlocks)
			}
			if s.HighWater != 1 {
				t.Errorf("HighWater = %d on Bounded(1)", s.HighWater)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestNoLostWakeup is the protocol's liveness half: with one-slot segments
// and a bound of 0 (unbounded), 1 or 2 the two sides hand every element
// over through a park or a near-park, so a wake lost in the window
// between a side's registration and its sleep wedges the run. The
// watchdog dumps the words the argument in wakeConsumer is about.
func TestNoLostWakeup(t *testing.T) {
	n := 200_000
	if testing.Short() || raceEnabled {
		n = 20_000
	}
	for _, bound := range []int{0, 1, 2} {
		t.Run(fmt.Sprintf("bound=%d", bound), func(t *testing.T) {
			var q *Queue[int]
			done := make(chan error, 1)
			go func() {
				done <- sched.New(2).Run(func(f *sched.Frame) {
					opts := []QueueOption{Named("lost.wakeup")}
					if bound > 0 {
						opts = append(opts, Bounded(bound))
					}
					q = NewWithCapacity[int](f, 1, opts...)
					f.Spawn(func(c *sched.Frame) {
						pu := q.BindPush(c)
						for i := 0; i < n; i++ {
							pu.Push(i)
						}
					}, Push(q))
					f.Spawn(func(c *sched.Frame) {
						po := q.BindPop(c)
						for want := 0; !po.Empty(); want++ {
							if v := po.Pop(); v != want {
								t.Errorf("popped %d, want %d", v, want)
								return
							}
						}
					}, Pop(q))
					f.Sync()
				})
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
				if s, _ := q.Metrics(); s.Popped != uint64(n) {
					t.Fatalf("popped %d of %d", s.Popped, n)
				}
			case <-time.After(20 * time.Second):
				fl := q.flow
				q.consMu.Lock()
				sleepers := q.sleepers
				q.consMu.Unlock()
				t.Fatalf("wedged: waiters=%d sleepers=%d pushWaiters=%d pushed=%d popped=%d",
					q.waiters.Load(), sleepers, fl.pushWaiters.Load(), fl.pushed.Load(), fl.popped.Load())
			}
		})
	}
}

// TestParkAllocs pins piece four of the protocol: a park registers the
// queue (or its flow state) in a slot of the frame's own record, so a
// full park/unpark cycle of a consumer or of a budget-parked producer
// allocates nothing.
func TestParkAllocs(t *testing.T) {
	t.Run("consumer", func(t *testing.T) {
		next := make(chan struct{})
		sched.New(2).Run(func(f *sched.Frame) {
			q := NewWithCapacity[int](f, 64, Named("allocs.cons"))
			f.Spawn(func(c *sched.Frame) {
				pu := q.BindPush(c)
				var slept uint64
				for i := 0; ; i++ {
					if _, ok := <-next; !ok {
						return
					}
					slept = pollStat(q, "consumer park", func(s QueueStat) bool {
						return s.Popped == uint64(i) && s.ConsumerBlocks > slept
					}).ConsumerBlocks
					pu.Push(i)
					next <- struct{}{}
				}
			}, Push(q))
			f.Spawn(func(c *sched.Frame) {
				po := q.BindPop(c)
				for !po.Empty() {
					po.Pop()
				}
			}, Pop(q))
			f.Block(func() {
				cycle := func() { next <- struct{}{}; <-next }
				for i := 0; i < 8; i++ {
					cycle() // warm-up: compensating workers, sudogs
				}
				if a := testing.AllocsPerRun(200, cycle); a != 0 {
					t.Errorf("consumer park/unpark cycle: %v allocs, want 0", a)
				}
				close(next)
			})
			f.Sync()
		})
	})

	t.Run("producer", func(t *testing.T) {
		next := make(chan struct{})
		sched.New(2).Run(func(f *sched.Frame) {
			q := NewWithCapacity[int](f, 64, Bounded(1), Named("allocs.prod"))
			var stop atomic.Bool
			f.Spawn(func(c *sched.Frame) {
				pu := q.BindPush(c)
				for i := 0; !stop.Load(); i++ {
					pu.Push(i)
				}
			}, Push(q))
			f.Spawn(func(c *sched.Frame) {
				po := q.BindPop(c)
				var slept uint64
				for i := 0; ; i++ {
					if _, ok := <-next; !ok {
						stop.Store(true)
						for !po.Empty() { // frees the producer to see stop
							po.Pop()
						}
						return
					}
					slept = pollStat(q, "producer park", func(s QueueStat) bool {
						return s.Pushed == uint64(i+1) && s.ProducerBlocks > slept
					}).ProducerBlocks
					po.Pop()
					next <- struct{}{}
				}
			}, Pop(q))
			f.Block(func() {
				cycle := func() { next <- struct{}{}; <-next }
				for i := 0; i < 8; i++ {
					cycle()
				}
				if a := testing.AllocsPerRun(200, cycle); a != 0 {
					t.Errorf("budget park/unpark cycle: %v allocs, want 0", a)
				}
				close(next)
			})
			f.Sync()
		})
	})
}
