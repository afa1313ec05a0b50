package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/sched"
)

// Tests of the per-task view set's recycling (segPool.getViews/putViews)
// and of the task records it rides on. The teardown tests assert outcomes,
// but they run under the race detector in CI and that is their point: a
// view set or a task record handed to a new task while anything still
// reads the previous task's state is a data race.

// fanin runs the paper's Figure 2 shape on q from frame c: a binary tree
// of producers whose 2^depth leaves push four values each.
func fanin(c *sched.Frame, q *Queue[int], depth, base int) {
	if depth == 0 {
		pw := q.BindPush(c)
		for i := 0; i < 4; i++ {
			pw.Push(base*4 + i)
		}
		return
	}
	c.Spawn(func(g *sched.Frame) { fanin(g, q, depth-1, base*2) }, Push(q))
	c.Spawn(func(g *sched.Frame) { fanin(g, q, depth-1, base*2+1) }, Push(q))
}

// TestViewSetsRecycle checks that a producer tree draws its view sets
// from the pool — the consumer still sees serial order — and that the
// deps a queue hands out are the same three values every time.
func TestViewSetsRecycle(t *testing.T) {
	for _, policy := range cancelPolicies {
		t.Run(policy.String(), func(t *testing.T) {
			rt := sched.NewWithPolicy(4, policy)
			const depth = 9
			got := 0
			rt.Run(func(f *sched.Frame) {
				q := NewWithCapacity[int](f, 16)
				if Push(q) != Push(q) || Pop(q) != Pop(q) || PushPop(q) != PushPop(q) || Push(q) == Pop(q) {
					t.Error("queue dependences are not the queue's three cached values")
				}
				f.Spawn(func(c *sched.Frame) { fanin(c, q, depth, 0) }, Push(q))
				f.Spawn(func(c *sched.Frame) {
					pp := q.BindPop(c)
					for !pp.Empty() {
						if v := pp.Pop(); v != got {
							t.Errorf("popped %d, want %d", v, got)
						}
						got++
					}
				}, Pop(q))
				f.Sync()
				if vs := q.CheckInvariants(f); len(vs) > 0 {
					t.Errorf("invariants after the tree: %s", vs[0].String())
				}
				cached := 0
				for i := range q.pool.shards {
					sh := &q.pool.shards[i]
					cached += sh.nviews
					for _, qv := range sh.views[:sh.nviews] {
						if qv.q != nil || qv.parentQV != nil || qv.vs.Frame != nil || qv.vs.User.Valid || qv.vs.Parent != nil {
							t.Errorf("pooled view set was not reset: %+v", qv)
						}
					}
				}
				if cached == 0 {
					t.Error("no view set was returned to the pool")
				}
			})
			if want := 4 << depth; got != want {
				t.Errorf("consumed %d values, want %d", got, want)
			}
		})
	}
}

// TestStaleFrameOnQueuePanics uses a queue through a frame kept past its
// task's return.
func TestStaleFrameOnQueuePanics(t *testing.T) {
	for _, policy := range cancelPolicies {
		t.Run(policy.String(), func(t *testing.T) {
			sched.NewWithPolicy(1, policy).Run(func(f *sched.Frame) {
				q := New[int](f)
				var stale *sched.Frame
				f.Spawn(func(c *sched.Frame) { stale = c; q.Push(c, 1) }, Push(q))
				f.Sync()
				defer func() {
					r := recover()
					if s, _ := r.(string); !strings.Contains(s, "frame used after its task returned") {
						t.Errorf("push through a stale frame: recovered %v, want the stale-frame panic", r)
					}
				}()
				q.Push(stale, 2)
			})
		})
	}
}

// TestTwoDepsOnOneQueuePanic pins the spawn-time rejection of a task that
// asks for two view sets on one queue (it would retire one of them twice
// and leave the other linked forever), and that the rejection comes before
// either dependence has registered anything: were the refused task's
// producer entry left behind, the consumer below would wait on it forever.
func TestTwoDepsOnOneQueuePanic(t *testing.T) {
	for _, policy := range cancelPolicies {
		t.Run(policy.String(), func(t *testing.T) {
			sched.NewWithPolicy(2, policy).Run(func(f *sched.Frame) {
				q := New[int](f)
				func() {
					defer func() {
						if s, _ := recover().(string); !strings.Contains(s, "two dependences on one object") {
							t.Errorf("recovered %q, want the two-dependences panic", s)
						}
					}()
					f.Spawn(func(*sched.Frame) { t.Error("the refused task ran") }, Push(q), Pop(q))
				}()
				f.Spawn(func(c *sched.Frame) {
					pw := q.BindPush(c)
					for v := 0; v < 100; v++ {
						pw.Push(v)
					}
				}, Push(q))
				got := 0
				f.Spawn(func(c *sched.Frame) {
					pp := q.BindPop(c)
					for !pp.Empty() {
						if v := pp.Pop(); v != got {
							t.Errorf("popped %d, want %d", v, got)
						}
						got++
					}
				}, Pop(q))
				f.Sync()
				if got != 100 {
					t.Errorf("consumed %d values after the refused spawn, want 100", got)
				}
				if vs := q.CheckInvariants(f); len(vs) > 0 {
					t.Errorf("invariants after the refused spawn: %s", vs[0].String())
				}
			})
		})
	}
}

// TestRecycleAcrossQueueTeardown runs the producer tree into each way a
// pipeline can end early — its scope canceled, a sibling panicking, the
// queue poisoned with Fail — many times over on one runtime, so that the
// records and view sets of unwound and skipped tasks are reused by the
// next round; then a clean round must still deliver serial order.
func TestRecycleAcrossQueueTeardown(t *testing.T) {
	cause := errors.New("stop")
	kills := map[string]func(c *sched.Frame, q *Queue[int]){
		"cancel": func(c *sched.Frame, q *Queue[int]) { c.CancelScope().Cancel(cause) },
		"panic":  func(c *sched.Frame, q *Queue[int]) { panic("boom") },
		"fail":   func(c *sched.Frame, q *Queue[int]) { q.Fail(cause) },
	}
	rounds := 40
	if testing.Short() {
		rounds = 10
	}
	for _, policy := range cancelPolicies {
		for name, kill := range kills {
			t.Run(policy.String()+"/"+name, func(t *testing.T) {
				rt := sched.NewWithPolicy(4, policy)
				err := rt.Run(func(f *sched.Frame) {
					for r := 0; r < rounds; r++ {
						got := f.ScopedCall(func(c *sched.Frame) {
							q := NewWithCapacity[int](c, 8)
							c.Spawn(func(g *sched.Frame) { fanin(g, q, 7, 0) }, Push(q))
							c.Spawn(func(g *sched.Frame) {
								pp := q.BindPop(g)
								for n := 0; !pp.Empty(); n++ {
									pp.Pop()
									if n == 100 {
										kill(g, q)
									}
								}
							}, Pop(q))
						})
						if got == nil {
							t.Errorf("round %d: the killed pipeline reported success", r)
						}
						// A clean pipeline on the records the dead one left.
						q := NewWithCapacity[int](f, 8)
						f.Spawn(func(c *sched.Frame) { fanin(c, q, 5, 0) }, Push(q))
						f.Sync()
						for want := 0; !q.Empty(f); want++ {
							if v := q.Pop(f); v != want {
								t.Errorf("round %d: popped %d, want %d", r, v, want)
							}
						}
					}
				})
				if err != nil {
					t.Fatalf("Run returned %v: the teardown escaped its scope", err)
				}
				if st := rt.Stats(); st.Spawns != st.TaskAllocs+st.TaskReuses {
					t.Errorf("spawns=%d, but allocs=%d + reuses=%d", st.Spawns, st.TaskAllocs, st.TaskReuses)
				}
			})
		}
	}
}
