package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/sched"
)

// These tests pin the robustness contract at the queue layer: canceling
// a scope or poisoning a queue must wake every park site — credit parks,
// emptiness waits, ticket gates — promptly, Run must report the cause,
// and the segment-pool accounting identity must survive the abort.

var cancelPolicies = []sched.SpawnPolicy{sched.PolicySteal, sched.PolicyGoroutine}

// waitStat polls the provider's queue meters until pred holds for the
// named queue, or gives up after 10s. It is how the tests observe "the
// task is actually parked" without touching queue internals: a block
// counter is incremented under the park's lock right before each sleep,
// and the parked task cannot make progress until woken.
func waitStat(rt *sched.Runtime, name string, pred func(QueueStat) bool) bool {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for _, s := range ProviderOf(rt).QueueStats() {
			if s.Name == name && pred(s) {
				return true
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
	return false
}

// wedge builds the canonical stuck pipeline from the ISSUE's acceptance
// scenario on frame f: a producer credit-parked on a full bounded queue
// qa, and a consumer parked mid-Pop on qb whose emptiness is undecided
// (the producer's unreached Push on qb keeps it open). Both names must
// be unique per runtime. The caller kills it and checks Run's error.
func wedge(f *sched.Frame, nameA, nameB string) (qa, qb *Queue[int]) {
	qa = NewWithCapacity[int](f, 4, Bounded(1), Named(nameA))
	qb = NewWithCapacity[int](f, 4, Bounded(64), Named(nameB))
	f.Spawn(func(p *sched.Frame) {
		pu := qa.BindPush(p)
		for i := 0; i < 20; i++ {
			pu.Push(i)
		}
		qb.Push(p, 1)
	}, Push(qa), Push(qb))
	f.Spawn(func(p *sched.Frame) { qb.Pop(p) }, Pop(qb))
	return qa, qb
}

// TestTeardownReachesParkedTasks is the teardown table: each way of ending
// a wait — a scope cancel, a queue Fail, a deadline — landing on a parked
// producer and on a parked consumer. Every cell first observes the park
// (the block meters count sleeps), then stops it; the wait must end
// promptly with the right cause, and the run must quiesce.
func TestTeardownReachesParkedTasks(t *testing.T) {
	cause := errors.New("teardown")
	producerParked := func(s QueueStat) bool { return s.ProducerBlocks > 0 }
	consumerParked := func(s QueueStat) bool { return s.ConsumerBlocks > 0 }
	cells := []struct {
		name string
		want error // what Run returns
		body func(t *testing.T, rt *sched.Runtime, f *sched.Frame)
	}{
		{"cancel/producer", cause, func(t *testing.T, rt *sched.Runtime, f *sched.Frame) {
			wedge(f, "td.qa", "td.qb")
			awaitParked(t, rt, f, "td.qa", producerParked)
			f.CancelScope().Cancel(cause)
		}},
		{"cancel/consumer", cause, func(t *testing.T, rt *sched.Runtime, f *sched.Frame) {
			wedge(f, "td.qa", "td.qb")
			awaitParked(t, rt, f, "td.qa", producerParked)
			awaitParked(t, rt, f, "td.qb", consumerParked)
			f.CancelScope().Cancel(cause)
		}},
		{"fail/producer", cause, func(t *testing.T, rt *sched.Runtime, f *sched.Frame) {
			qa, _ := wedge(f, "td.qa", "td.qb")
			awaitParked(t, rt, f, "td.qa", producerParked)
			qa.Fail(cause)
			qa.Fail(errors.New("second, must lose"))
			if got := qa.FailErr(); !errors.Is(got, cause) {
				t.Errorf("FailErr = %v, want the first cause %v", got, cause)
			}
		}},
		{"fail/consumer", cause, func(t *testing.T, rt *sched.Runtime, f *sched.Frame) {
			_, qb := wedge(f, "td.qa", "td.qb")
			awaitParked(t, rt, f, "td.qb", consumerParked)
			qb.Fail(cause) // the consumer's unwind cancels the scope, which frees the producer
		}},
		{"timeout/producer", nil, func(t *testing.T, rt *sched.Runtime, f *sched.Frame) {
			qa := NewWithCapacity[int](f, 4, Bounded(1), Named("td.qa"))
			pu := qa.BindPush(f)
			pu.Push(1)
			if e := pu.PushTimeout(2, 20*time.Millisecond); e != ErrTimeout {
				t.Errorf("PushTimeout on a full queue returned %v, want ErrTimeout", e)
			}
			if s, _ := qa.Metrics(); s.ProducerBlocks == 0 || s.Sheds != 1 {
				t.Errorf("timed-out push: %d blocks, %d sheds, want a park and one shed", s.ProducerBlocks, s.Sheds)
			}
			qa.Pop(f)
		}},
		{"timeout/consumer", nil, func(t *testing.T, rt *sched.Runtime, f *sched.Frame) {
			qb := NewWithCapacity[int](f, 4, Named("td.qb"))
			gate := make(chan struct{})
			f.Spawn(func(p *sched.Frame) { p.Block(func() { <-gate }) }, Push(qb)) // keeps emptiness undecided
			po := qb.BindPop(f)
			if _, e := po.PopTimeout(20 * time.Millisecond); e != ErrTimeout {
				t.Errorf("PopTimeout on an undecided queue returned %v, want ErrTimeout", e)
			}
			if s, _ := qb.Metrics(); s.ConsumerBlocks == 0 {
				t.Error("timed-out pop never parked")
			}
			close(gate)
		}},
	}
	for _, policy := range cancelPolicies {
		for _, c := range cells {
			t.Run(policy.String()+"/"+c.name, func(t *testing.T) {
				rt := sched.NewWithPolicy(4, policy)
				done := make(chan error, 1)
				go func() {
					done <- rt.Run(func(f *sched.Frame) {
						c.body(t, rt, f)
						f.Sync()
					})
				}()
				select {
				case err := <-done:
					if !errors.Is(err, c.want) {
						t.Fatalf("Run returned %v, want %v", err, c.want)
					}
				case <-time.After(10 * time.Second):
					t.Fatal("teardown did not reach the parked task: the run is wedged")
				}
			})
		}
	}
}

// awaitParked waits, giving up f's capacity, until the named queue's meter
// shows the park.
func awaitParked(t *testing.T, rt *sched.Runtime, f *sched.Frame, name string, parked func(QueueStat) bool) {
	var ok bool
	f.Block(func() { ok = waitStat(rt, name, parked) })
	if !ok {
		t.Errorf("%s: the task never parked", name)
	}
}

// TestPoolAuditBalancesAfterCancel checks the accounting identity across
// an abort: after a canceled wedge quiesces, every segment ever
// allocated is either pooled, dropped, or in the abandoned queues'
// chains — unwound tasks still deposit their views. The cancel is
// contained in a sub-scope, so Run itself returns nil.
func TestPoolAuditBalancesAfterCancel(t *testing.T) {
	for _, policy := range cancelPolicies {
		t.Run(policy.String(), func(t *testing.T) {
			rt := sched.NewWithPolicy(4, policy)
			var chains uint64
			err := rt.Run(func(f *sched.Frame) {
				serr := f.ScopedCall(func(c *sched.Frame) {
					qa, qb := wedge(c, "audit.qa", "audit.qb")
					var parked bool
					c.Block(func() {
						parked = waitStat(rt, "audit.qa", func(s QueueStat) bool { return s.ProducerBlocks > 0 })
					})
					if !parked {
						t.Error("producer never parked on the exhausted budget")
					}
					c.CancelScope().Cancel(nil)
					c.Sync()
					chains = qa.DebugChainSegments(c) + qb.DebugChainSegments(c)
				})
				if !errors.Is(serr, sched.ErrCanceled) {
					t.Errorf("ScopedCall returned %v, want ErrCanceled", serr)
				}
			})
			if err != nil {
				t.Fatalf("Run returned %v, want nil (cancel contained in sub-scope)", err)
			}
			p := ProviderOf(rt)
			allocs, pooled, dropped := p.SegmentAllocs(), uint64(p.PooledSegments()), p.DroppedSegments()
			if allocs != pooled+dropped+chains {
				t.Fatalf("pool audit unbalanced after cancel: allocs=%d pooled=%d dropped=%d chains=%d",
					allocs, pooled, dropped, chains)
			}
		})
	}
}

// TestTryPushPushTimeoutPopTimeout is the deterministic deadline script:
// shed decisions and deadline outcomes as return values, in a fixed
// order, with the shed meter counting refused values.
func TestTryPushPushTimeoutPopTimeout(t *testing.T) {
	const short, long = 2 * time.Millisecond, 10 * time.Second
	for _, policy := range cancelPolicies {
		t.Run(policy.String(), func(t *testing.T) {
			rt := sched.NewWithPolicy(4, policy)
			err := rt.Run(func(f *sched.Frame) {
				qa := NewWithCapacity[int](f, 4, Bounded(1), Named("dl.qa"))
				qb := NewWithCapacity[int](f, 4, Bounded(1))
				pua := qa.BindPush(f)
				if !pua.TryPush(1) {
					t.Error("TryPush refused a value the budget admits")
				}
				if pua.TryPush(2) {
					t.Error("TryPush accepted a value over budget")
				}
				if e := pua.PushTimeout(3, short); e != ErrTimeout {
					t.Errorf("PushTimeout over budget returned %v, want ErrTimeout", e)
				}
				for _, s := range ProviderOf(rt).QueueStats() {
					if s.Name == "dl.qa" && s.Sheds != 2 {
						t.Errorf("Sheds = %d, want 2", s.Sheds)
					}
				}
				// A producer child: credit-parked on qa until the owner pops,
				// its unreached push on qb keeping qb's emptiness undecided.
				f.Spawn(func(p *sched.Frame) {
					qa.Push(p, 4)
					qb.Push(p, 5)
				}, Push(qa), Push(qb))
				pob := qb.BindPop(f)
				if _, e := pob.PopTimeout(short); e != ErrTimeout {
					t.Errorf("PopTimeout on undecided queue returned %v, want ErrTimeout", e)
				}
				poa := qa.BindPop(f)
				if v, e := poa.PopTimeout(long); e != nil || v != 1 {
					t.Errorf("PopTimeout = (%d, %v), want (1, nil)", v, e)
				}
				if v, e := poa.PopTimeout(long); e != nil || v != 4 {
					t.Errorf("PopTimeout = (%d, %v), want (4, nil)", v, e)
				}
				if v, e := pob.PopTimeout(long); e != nil || v != 5 {
					t.Errorf("PopTimeout = (%d, %v), want (5, nil)", v, e)
				}
				f.Sync()
				if _, e := poa.PopTimeout(short); e != ErrEmpty {
					t.Errorf("PopTimeout on settled empty queue returned %v, want ErrEmpty", e)
				}
			})
			if err != nil {
				t.Fatalf("Run returned %v, want nil", err)
			}
		})
	}
}

// TestPopTimeoutCanceledScope checks that PopTimeout reports the scope's
// cancellation cause as a return value rather than unwinding.
func TestPopTimeoutCanceledScope(t *testing.T) {
	cause := errors.New("stop draining")
	err := sched.New(2).Run(func(f *sched.Frame) {
		q := New[int](f)
		f.CancelScope().Cancel(cause)
		po := q.BindPop(f)
		if _, e := po.PopTimeout(10 * time.Second); !errors.Is(e, cause) {
			t.Errorf("PopTimeout under canceled scope returned %v, want %v", e, cause)
		}
	})
	if !errors.Is(err, cause) {
		t.Fatalf("Run returned %v, want %v", err, cause)
	}
}

// TestShardedDrainAndFail checks the fan-out teardown rendezvous: Drain
// times out while a producer stalls, succeeds once the stream finishes,
// and Fail hard-tears a fan-out whose consumer is gone — the merger
// completes (so Drain returns) and Run reports the poison cause.
func TestShardedDrainAndFail(t *testing.T) {
	newShard := func(f *sched.Frame) *Sharded[uint64, uint64] {
		return NewSharded(f, ShardConfig{Shards: 2, Bound: 8},
			func(v uint64) uint64 { return v },
			func(c *sched.Frame, shard int) func(uint64) uint64 {
				return func(v uint64) uint64 { return v * 2 }
			})
	}

	t.Run("drain", func(t *testing.T) {
		gate := make(chan struct{})
		var got []uint64
		err := sched.New(4).Run(func(f *sched.Frame) {
			s := newShard(f)
			f.Spawn(func(p *sched.Frame) {
				pu := s.In().BindPush(p)
				pu.Push(1)
				p.Block(func() { <-gate })
				pu.Push(2)
			}, Push(s.In()))
			s.Launch(f)
			f.Spawn(func(p *sched.Frame) {
				po := s.Out().BindPop(p)
				for !po.Empty() {
					got = append(got, po.Pop())
				}
			}, Pop(s.Out()))
			if e := s.Drain(f, 5*time.Millisecond); e != ErrTimeout {
				t.Errorf("Drain with a stalled producer returned %v, want ErrTimeout", e)
			}
			close(gate)
			if e := s.Drain(f, 10*time.Second); e != nil {
				t.Errorf("Drain after the stream finished returned %v, want nil", e)
			}
			if !s.Drained() {
				t.Error("Drained() false after a successful Drain")
			}
			f.Sync()
		})
		if err != nil {
			t.Fatalf("Run returned %v, want nil", err)
		}
		if len(got) != 2 || got[0] != 2 || got[1] != 4 {
			t.Fatalf("egress = %v, want [2 4]", got)
		}
	})

	t.Run("fail", func(t *testing.T) {
		cause := errors.New("consumer gone")
		gate := make(chan struct{})
		err := sched.New(4).Run(func(f *sched.Frame) {
			s := newShard(f)
			f.Spawn(func(p *sched.Frame) {
				pu := s.In().BindPush(p)
				pu.Push(1)
				p.Block(func() { <-gate })
				pu.Push(2)
			}, Push(s.In()))
			s.Launch(f)
			s.Fail(cause)
			close(gate)
			// Drain must return promptly: either the merger already unwound
			// (nil) or the scope cancel triggered by the poison woke the wait
			// with the cause. Both mean teardown is progressing, not wedged.
			if e := s.Drain(f, 10*time.Second); e != nil && !errors.Is(e, cause) {
				t.Errorf("Drain after Fail returned %v, want nil or the poison cause", e)
			}
			f.Sync()
			if !s.Drained() {
				t.Error("merger beacon did not fire after Fail (completion protocol skipped)")
			}
		})
		if !errors.Is(err, cause) {
			t.Fatalf("Run returned %v, want %v", err, cause)
		}
	})
}
