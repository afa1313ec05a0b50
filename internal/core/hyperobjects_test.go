package core

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sched"
)

// appendMonoid is associative and order-sensitive: a fold that merges
// views out of serial program order produces a visibly misordered list.
func appendMonoid() Monoid[[]int] {
	return Monoid[[]int]{
		Identity: func() []int { return nil },
		Combine:  func(into *[]int, from []int) { *into = append(*into, from...) },
	}
}

func TestReducerSerialOrder(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var got []int
			run(workers, func(f *sched.Frame) {
				r := NewReducer(f, appendMonoid())
				for i := 0; i < 32; i++ {
					i := i
					f.Spawn(func(c *sched.Frame) {
						h := r.BindReduce(c)
						// Stagger completions so merges happen out of
						// spawn order under parallel schedules.
						if i%3 == 0 {
							time.Sleep(time.Millisecond)
						}
						h.Add([]int{i})
					}, Reduce(r))
				}
				f.Sync()
				got = r.Value(f)
			})
			want := make([]int, 32)
			for i := range want {
				want[i] = i
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("reducer fold = %v, want %v", got, want)
			}
		})
	}
}

func TestReducerNestedSpawns(t *testing.T) {
	var got []int
	run(4, func(f *sched.Frame) {
		r := NewReducer(f, appendMonoid())
		h := r.BindReduce(f)
		h.Add([]int{0})
		f.Spawn(func(c *sched.Frame) {
			ch := r.BindReduce(c)
			ch.Add([]int{1})
			c.Spawn(func(g *sched.Frame) {
				r.BindReduce(g).Add([]int{2})
			}, Reduce(r))
			c.Sync()
			ch.Add([]int{3})
		}, Reduce(r))
		f.Spawn(func(c *sched.Frame) {
			r.BindReduce(c).Add([]int{4})
		}, Reduce(r))
		r.BindReduce(f).Add([]int{5})
		f.Sync()
		got = r.Value(f)
	})
	// Serial elision: owner's 0, first child (1, then its child's 2,
	// then 3), second child's 4, owner's 5.
	want := []int{0, 1, 2, 3, 4, 5}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reducer fold = %v, want %v", got, want)
	}
}

func TestReducerValueIdentityWhenEmpty(t *testing.T) {
	run(1, func(f *sched.Frame) {
		r := NewReducer(f, Monoid[int]{
			Identity: func() int { return 7 },
			Combine:  func(into *int, from int) { *into += from },
		})
		if v := r.Value(f); v != 7 {
			t.Fatalf("Value of untouched reducer = %d, want identity 7", v)
		}
	})
}

func TestReducerUpdate(t *testing.T) {
	var got [4]int64
	run(4, func(f *sched.Frame) {
		r := NewReducer(f, Monoid[[4]int64]{
			Identity: func() [4]int64 { return [4]int64{} },
			Combine: func(into *[4]int64, from [4]int64) {
				for i := range into {
					into[i] += from[i]
				}
			},
		})
		for i := 0; i < 100; i++ {
			slot := i % 4
			f.Spawn(func(c *sched.Frame) {
				r.BindReduce(c).Update(func(s *[4]int64) { s[slot]++ })
			}, Reduce(r))
		}
		f.Sync()
		got = r.Value(f)
	})
	if got != [4]int64{25, 25, 25, 25} {
		t.Fatalf("slot counts = %v, want all 25", got)
	}
}

func TestReducerMustViewsPanics(t *testing.T) {
	run(1, func(f *sched.Frame) {
		r := NewReducer(f, appendMonoid())
		f.Spawn(func(c *sched.Frame) {
			defer func() {
				if recover() == nil {
					t.Error("BindReduce on a frame without the dependence did not panic")
				}
			}()
			r.BindReduce(c)
		}) // no Reduce(r) dep
		f.Sync()
	})
}

func TestReducerStat(t *testing.T) {
	run(4, func(f *sched.Frame) {
		r := NewReducer(f, appendMonoid(), HyperNamed("stat-test"))
		for i := 0; i < 8; i++ {
			i := i
			f.Spawn(func(c *sched.Frame) {
				r.BindReduce(c).Add([]int{i})
			}, Reduce(r))
		}
		f.Sync()
		st := r.Stat()
		if st.Name != "stat-test" || st.Kind != "reducer" {
			t.Fatalf("Stat identity = %q/%q", st.Name, st.Kind)
		}
		if st.Views != 9 { // owner + 8 writers
			t.Fatalf("Stat.Views = %d, want 9", st.Views)
		}
		if st.Merges == 0 {
			t.Fatal("Stat.Merges = 0 after a parallel fold")
		}
		// The registry must aggregate this object under its name.
		found := false
		for _, s := range ProviderOf(f.Runtime()).HyperStats() {
			if s.Name == "stat-test" && s.Kind == "reducer" {
				found = true
			}
		}
		if !found {
			t.Fatal("named reducer missing from PoolProvider.HyperStats")
		}
	})
}

func TestHypermapFirstWriterWins(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			for rep := 0; rep < 5; rep++ {
				var got []string
				run(workers, func(f *sched.Frame) {
					m := NewHypermap[int, string](f)
					for i := 0; i < 16; i++ {
						i := i
						f.Spawn(func(c *sched.Frame) {
							h := m.BindMap(c)
							if i%2 == 0 {
								time.Sleep(time.Millisecond) // let later writers race ahead
							}
							// Every writer puts key i%4; the serially
							// first (i = 0..3) must win.
							h.Put(i%4, fmt.Sprintf("writer-%d", i))
						}, MapWrite(m))
					}
					f.Sync()
					got = make([]string, 4)
					for k := 0; k < 4; k++ {
						v, ok := m.Get(f, k)
						if !ok {
							t.Errorf("key %d missing after sync", k)
						}
						got[k] = v
					}
				})
				want := []string{"writer-0", "writer-1", "writer-2", "writer-3"}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("rep %d: merged map = %v, want %v", rep, got, want)
				}
			}
		})
	}
}

func TestHypermapPutDupSoundness(t *testing.T) {
	// Put's dup report may have false negatives but never false
	// positives: a true must mean a serially-earlier occurrence exists.
	// Stress it by having each of 8 writers put the same 64 keys; count
	// how many times key k was reported non-dup. At most one writer can
	// be serially first, so per-key non-dup reports may exceed 1 only if
	// claims were not yet visible (allowed) — but a writer that is
	// serially FIRST must never see dup=true.
	var firstSawDup atomic.Bool
	run(4, func(f *sched.Frame) {
		m := NewHypermap[int, int](f)
		for w := 0; w < 8; w++ {
			w := w
			f.Spawn(func(c *sched.Frame) {
				h := m.BindMap(c)
				for k := 0; k < 64; k++ {
					if h.Put(k, w) && w == 0 {
						firstSawDup.Store(true)
					}
				}
			}, MapWrite(m))
		}
		f.Sync()
		// Determinism: first writer (w=0) wins every key.
		for k := 0; k < 64; k++ {
			if v, _ := m.Get(f, k); v != 0 {
				t.Fatalf("key %d = writer %d, want 0", k, v)
			}
		}
	})
	if firstSawDup.Load() {
		t.Fatal("serially-first writer got dup=true (unsound claim probe)")
	}
}

func wantPut(t *testing.T, who string, got, want bool) {
	t.Helper()
	if got != want {
		t.Errorf("%s: Put = %v, want %v", who, got, want)
	}
}

// TestHypermapClaimRules is Put's claim rule, one row per place the
// key's claimant can sit relative to the caller. In every row the key is
// absent from the caller's private view, so the claims index alone
// decides; channels waited on inside Block fix the physical order of
// the puts, so a row means the same at any worker count.
func TestHypermapClaimRules(t *testing.T) {
	type hmap = Hypermap[string, int]
	rows := []struct {
		name string
		body func(t *testing.T, f *sched.Frame, m *hmap)
	}{
		{"same frame", func(t *testing.T, f *sched.Frame, m *hmap) {
			h := m.BindMap(f)
			wantPut(t, "first put", h.Put("k", 0), false)
			// The spawn hands f's private view, key included, to the
			// child; f's claim stays.
			f.Spawn(func(*sched.Frame) {}, MapWrite(m))
			wantPut(t, "put after the hand-off", h.Put("k", 0), true)
		}},
		{"descendant", func(t *testing.T, f *sched.Frame, m *hmap) {
			f.Call(func(c *sched.Frame) {
				wantPut(t, "child", m.BindMap(c).Put("k", 1), false)
			}, MapWrite(m))
			// The child's view waits in f's children view until a sync,
			// so f's private view lacks the key.
			wantPut(t, "parent after the child returned", m.BindMap(f).Put("k", 0), true)
		}},
		{"earlier non-ancestor", func(t *testing.T, f *sched.Frame, m *hmap) {
			f.Call(func(c *sched.Frame) {
				c.Call(func(g *sched.Frame) {
					wantPut(t, "nephew", m.BindMap(g).Put("k", 1), false)
				}, MapWrite(m))
			}, MapWrite(m))
			f.Call(func(c *sched.Frame) {
				wantPut(t, "later sibling of its parent", m.BindMap(c).Put("k", 2), true)
			}, MapWrite(m))
		}},
		{"ancestor after spawning", func(t *testing.T, f *sched.Frame, m *hmap) {
			put := make(chan struct{})
			f.Spawn(func(c *sched.Frame) {
				c.Block(func() { <-put })
				wantPut(t, "child spawned before its parent's put", m.BindMap(c).Put("k", 1), false)
			}, MapWrite(m))
			wantPut(t, "parent", m.BindMap(f).Put("k", 0), false)
			close(put)
			f.Sync()
			// In the serial elision the child's body runs before the
			// parent's put, so the child's value is the one kept.
			if v, _ := m.Get(f, "k"); v != 1 {
				t.Errorf("merged value = %d, want the child's 1", v)
			}
		}},
		{"later writer", func(t *testing.T, f *sched.Frame, m *hmap) {
			later := make(chan struct{})
			f.Spawn(func(c *sched.Frame) {
				c.Block(func() { <-later })
				wantPut(t, "earlier sibling, second to put", m.BindMap(c).Put("k", 0), false)
			}, MapWrite(m))
			f.Spawn(func(c *sched.Frame) {
				wantPut(t, "later sibling, first to put", m.BindMap(c).Put("k", 1), false)
				close(later)
			}, MapWrite(m))
		}},
		{"improved claim", func(t *testing.T, f *sched.Frame, m *hmap) {
			// Siblings a < b < c in program order put in the order c, a,
			// b. a's put moves the claim from c to a, which proves b a
			// duplicate; against c, a later writer, b would get false.
			cPut, aPut := make(chan struct{}), make(chan struct{})
			f.Spawn(func(a *sched.Frame) {
				a.Block(func() { <-cPut })
				wantPut(t, "a", m.BindMap(a).Put("k", 0), false)
				close(aPut)
			}, MapWrite(m))
			f.Spawn(func(b *sched.Frame) {
				b.Block(func() { <-aPut })
				wantPut(t, "b", m.BindMap(b).Put("k", 1), true)
			}, MapWrite(m))
			f.Spawn(func(c *sched.Frame) {
				wantPut(t, "c", m.BindMap(c).Put("k", 2), false)
				close(cPut)
			}, MapWrite(m))
		}},
	}
	for _, workers := range []int{1, 2} {
		for _, row := range rows {
			t.Run(fmt.Sprintf("workers=%d/%s", workers, row.name), func(t *testing.T) {
				run(workers, func(f *sched.Frame) {
					row.body(t, f, NewHypermap[string, int](f))
					f.Sync()
				})
			})
		}
	}
}

// TestHypermapPutClaimedKeyAllocs: a Put that finds its key claimed by
// an earlier writer — dedup's duplicate probe — allocates nothing.
func TestHypermapPutClaimedKeyAllocs(t *testing.T) {
	const n = 1000
	keys := make([][32]byte, n)
	for i := range keys {
		keys[i][0], keys[i][1] = byte(i), byte(i>>8)
	}
	run(1, func(f *sched.Frame) {
		m := NewHypermap[[32]byte, int](f)
		f.Call(func(c *sched.Frame) {
			h := m.BindMap(c)
			for _, k := range keys {
				h.Put(k, 0)
			}
		}, MapWrite(m))
		f.Call(func(c *sched.Frame) {
			h := m.BindMap(c)
			// Presized, the private view never grows: what is counted is
			// Put's own work.
			h.vs.User.m = make(map[[32]byte]int, n)
			i := 0
			allocs := testing.AllocsPerRun(n-1, func() {
				if !h.Put(keys[i], 1) {
					t.Errorf("key %d: Put = false, but an earlier sibling claimed it", i)
				}
				i++
			})
			if allocs != 0 {
				t.Errorf("Put on a claimed key: %v allocs, want 0", allocs)
			}
		}, MapWrite(m))
	})
}

// TestReducerSteadyStateZeroAllocs: the reducer write path — a bound
// handle folding values into its task-private view — takes no lock and
// allocates nothing once the view exists.
func TestReducerSteadyStateZeroAllocs(t *testing.T) {
	run(1, func(f *sched.Frame) {
		r := NewReducer(f, Monoid[int]{
			Identity: func() int { return 0 },
			Combine:  func(into *int, from int) { *into += from },
		})
		f.Spawn(func(c *sched.Frame) {
			h := r.BindReduce(c)
			lap := func() {
				for i := 0; i < 64; i++ {
					h.Add(i)
				}
			}
			lap() // warm the view
			if allocs := testing.AllocsPerRun(50, lap); allocs != 0 {
				t.Errorf("reducer lap allocates %v times per run, want 0", allocs)
			}
		}, Reduce(r))
		f.Sync()
	})
}

func TestHypermapPutIfAbsentInterning(t *testing.T) {
	run(1, func(f *sched.Frame) {
		m := NewHypermap[string, int](f)
		h := m.BindMap(f)
		next := 0
		intern := func(k string) int {
			id, loaded := h.PutIfAbsent(k, next)
			if !loaded {
				next++
			}
			return id
		}
		keys := []string{"a", "b", "a", "c", "b", "a"}
		var ids []int
		for _, k := range keys {
			ids = append(ids, intern(k))
		}
		want := []int{0, 1, 0, 2, 1, 0}
		if !reflect.DeepEqual(ids, want) {
			t.Fatalf("interned ids = %v, want %v", ids, want)
		}
		if m.Len(f) != 3 {
			t.Fatalf("Len = %d, want 3", m.Len(f))
		}
	})
}

func TestHypermapGetSeesInheritedView(t *testing.T) {
	run(1, func(f *sched.Frame) {
		m := NewHypermap[string, int](f)
		m.BindMap(f).Put("parent", 1)
		f.Sync()
		f.Spawn(func(c *sched.Frame) {
			// The child inherits the parent's user view by hand-off.
			if v, ok := m.BindMap(c).Get("parent"); !ok || v != 1 {
				t.Errorf("child Get(parent) = %d,%v; want 1,true", v, ok)
			}
		}, MapWrite(m))
		f.Sync()
	})
}
