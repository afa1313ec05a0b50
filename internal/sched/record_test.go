package sched

import (
	"errors"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
)

// Tests of the task record's economy and lifetime: what a spawn may
// allocate, who gets a retired record next, and what happens to code that
// holds a frame past its task.

// countDep is a pointer-shaped dep that counts its protocol calls; being
// a pointer it is stored in the record without a box.
type countDep struct{ prepared, completed atomic.Int64 }

func (d *countDep) Prepare(p, c *Frame)  { d.prepared.Add(1) }
func (d *countDep) Wait(c *Frame)        {}
func (d *countDep) Ready(c *Frame) bool  { return true }
func (d *countDep) Complete(p, c *Frame) { d.completed.Add(1) }

func emptyBody(*Frame)       {}
func emptyBodyN(*Frame, int) {}

// TestSpawnAllocBudget is the unit-level guard of the spawn path's
// allocation claim. The rows on one worker, where no thief carries
// records away and the counts are exact, want nothing at all: in steady
// state a spawn takes its record from the free list. The rows on every
// core of the box, where thieves retire records to their own free lists,
// allow a spawn its record and nothing more: budget 1 per spawn.
func TestSpawnAllocBudget(t *testing.T) {
	var dep, dep2, dep3 countDep
	wide := runtime.NumCPU()
	budgets := []struct {
		name    string
		workers int
		max     float64 // allocations per run
		op      func(f *Frame)
	}{
		{"Spawn+Sync", 1, 0, func(f *Frame) { f.Spawn(emptyBody); f.Sync() }},
		{"Spawn(dep)+Sync", 1, 0, func(f *Frame) { f.Spawn(emptyBody, &dep); f.Sync() }},
		{"Spawn(3 deps)+Sync", 1, 0, func(f *Frame) { f.Spawn(emptyBody, &dep, &dep2, &dep3); f.Sync() }},
		{"SpawnN(16)+Sync", 1, 0, func(f *Frame) { f.SpawnN(16, emptyBodyN, &dep); f.Sync() }},
		{"Call", 1, 1, func(f *Frame) { f.Call(emptyBody) }}, // its done channel
		{"256 Spawns+Sync", wide, 256, func(f *Frame) {
			for i := 0; i < 256; i++ {
				f.Spawn(emptyBody)
			}
			f.Sync()
		}},
		{"SpawnN(16)+Sync", wide, 16, func(f *Frame) { f.SpawnN(16, emptyBodyN); f.Sync() }},
	}
	for _, b := range budgets {
		New(b.workers).Run(func(f *Frame) {
			for i := 0; i < 4; i++ {
				b.op(f) // warm the free list and the spill slices
			}
			if got := testing.AllocsPerRun(200, func() { b.op(f) }); got > b.max {
				t.Errorf("%s on %d workers: %v allocs per run, budget %v", b.name, b.workers, got, b.max)
			}
		})
	}
	if p, c := dep.prepared.Load(), dep.completed.Load(); p == 0 || p != c {
		t.Errorf("dep protocol: %d Prepare, %d Complete", p, c)
	}
}

// TestSyncParkAllocs forces the other park of the spawn path: a Sync
// whose child a thief is still running cannot help and parks in Block,
// and that park — like the spawn before it — allocates nothing. The
// child's record retires to the thief's free list, so the spawner's list
// is filled first with enough records for every measured cycle.
func TestSyncParkAllocs(t *testing.T) {
	const runs = 100
	rt := New(2)
	rt.Run(func(f *Frame) {
		var started atomic.Bool
		var before uint64
		child := func(*Frame) {
			started.Store(true)
			for rt.pool.stats.Blocks.Load() == before { // until the parent is inside Block
				runtime.Gosched()
			}
		}
		cycle := func() {
			started.Store(false)
			before = rt.pool.stats.Blocks.Load()
			f.Spawn(child)
			for !started.Load() { // a thief has it: Sync has nothing to help with
				runtime.Gosched()
			}
			f.Sync()
		}
		for i := 0; i < 4; i++ {
			cycle()
		}
		for f.worker.nfree < runs+8 {
			f.SpawnN(taskCacheCap, emptyBodyN)
			f.Sync()
		}
		if got := testing.AllocsPerRun(runs, cycle); got != 0 {
			t.Errorf("Spawn + parked Sync: %v allocs per run, want 0", got)
		}
	})
}

// tree spawns a binary tree of the given depth and counts its leaves.
func tree(f *Frame, depth int, leaves *atomic.Int64) {
	if depth == 0 {
		leaves.Add(1)
		return
	}
	f.Spawn(func(c *Frame) { tree(c, depth-1, leaves) })
	f.Spawn(func(c *Frame) { tree(c, depth-1, leaves) })
}

// checkBooks asserts the spawn-side accounting identity.
func checkBooks(t *testing.T, rt *Runtime) Stats {
	t.Helper()
	st := rt.Stats()
	if st.Spawns != st.TaskAllocs+st.TaskReuses {
		t.Errorf("spawns=%d, but allocs=%d + reuses=%d", st.Spawns, st.TaskAllocs, st.TaskReuses)
	}
	return st
}

// TestRecordsRecycle checks that a spawn tree far larger than any free
// list runs on a handful of records, and that a free list never grows
// past its cap however many records a worker retires.
func TestRecordsRecycle(t *testing.T) {
	rt := New(1)
	var leaves atomic.Int64
	rt.Run(func(f *Frame) {
		tree(f, 12, &leaves)
		f.Sync()
		st := checkBooks(t, rt)
		if st.Spawns != 1<<13-2 {
			t.Errorf("spawns = %d, want %d", st.Spawns, 1<<13-2)
		}
		// Depth-first, two records per level are live at once; the worker
		// that compensates for Run's blocked caller steals a few more.
		if st.TaskAllocs*20 > st.Spawns {
			t.Errorf("a depth-12 tree allocated %d records for %d spawns", st.TaskAllocs, st.Spawns)
		}
		// A flat wave wider than the cap: the surplus is dropped.
		f.SpawnN(3*taskCacheCap, emptyBodyN)
		f.Sync()
		if n := f.worker.nfree; n == 0 || n > taskCacheCap {
			t.Errorf("free list holds %d records after retiring %d, want up to the cap %d", n, 3*taskCacheCap, taskCacheCap)
		}
		n := 0
		for c := f.worker.free; c != nil; c = c.nextFree {
			n++
			if c.gen&1 == 0 || c.parent != nil || c.body != nil || c.bodyN != nil || c.attachKey != nil || c.hook != nil {
				t.Errorf("cached record %d was not reset: %+v", n, c)
			}
		}
		if n != f.worker.nfree {
			t.Errorf("free list links %d records, counts %d", n, f.worker.nfree)
		}
	})
	if leaves.Load() != 1<<12 {
		t.Errorf("leaves = %d, want %d", leaves.Load(), 1<<12)
	}
	checkBooks(t, rt)
}

// TestStaleFramePanics holds a child's frame past the child's return and
// uses it: every entry point must refuse, whether
// the record went back to a free list or to the garbage collector.
func TestStaleFramePanics(t *testing.T) {
	uses := map[string]func(f *Frame){
		"Spawn":         func(f *Frame) { f.Spawn(emptyBody) },
		"SpawnN":        func(f *Frame) { f.SpawnN(2, emptyBodyN) },
		"Call":          func(f *Frame) { f.Call(emptyBody) },
		"Sync":          func(f *Frame) { f.Sync() },
		"Block":         func(f *Frame) { f.Block(func() {}) },
		"Attachment":    func(f *Frame) { f.Attachment("k") },
		"SetAttachment": func(f *Frame) { f.SetAttachment("k", 1) },
		"AddSyncHook":   func(f *Frame) { f.AddSyncHook(hookFunc(func() {})) },
		"Label":         func(f *Frame) { f.Label() },
	}
	for _, mode := range modes {
		for name, use := range uses {
			t.Run(mode+"/"+name, func(t *testing.T) {
				var root *Frame
				newRuntime(t, 1, mode).Run(func(f *Frame) {
					root = f
					// The "goroutine" mode's background Run may hand the
					// child's record to a task of its own while f syncs.
					// A reused record belongs to a live task and cannot
					// be refused, so spawn again until the record is
					// still retired; f holds the only run token from
					// here to the use, so it stays retired.
					var stale *Frame
					for try := 0; ; try++ {
						f.Spawn(func(c *Frame) { stale = c })
						f.Sync()
						if stale.gen&1 == 1 {
							break
						}
						if try == 100 {
							t.Fatal("every child record was reused before the test could use it")
						}
					}
					mustPanicStale(t, "child", func() { use(stale) })
				})
				mustPanicStale(t, "root", func() { use(root) })
			})
		}
	}
}

func mustPanicStale(t *testing.T, which string, use func()) {
	t.Helper()
	defer func() {
		r := recover()
		if s, _ := r.(string); !strings.Contains(s, "frame used after its task returned") {
			t.Errorf("use of the stale %s frame: recovered %v, want the stale-frame panic", which, r)
		}
	}()
	use()
}

// TestLabelOutlivesTheRecord checks what code that needs a task's place
// in program order after the task has returned keeps instead of the
// frame: the label is a copy, and stays what it was while the record it
// was read from is handed to other tasks.
func TestLabelOutlivesTheRecord(t *testing.T) {
	var early, nested, late []int32
	New(1).Run(func(f *Frame) {
		if l := f.Label(); len(l) != 0 {
			t.Errorf("root label %v, want empty", l)
		}
		f.Spawn(func(c *Frame) { early = c.Label() })
		f.Spawn(func(c *Frame) {
			c.Spawn(func(g *Frame) { nested = g.Label() })
		})
		f.Sync()
		// Churn: these spawns take over the records the labels came from.
		for i := 0; i < 8; i++ {
			f.Spawn(emptyBody)
			f.Sync()
		}
		f.Spawn(func(c *Frame) { late = c.Label() })
	})
	if !slices.Equal(early, []int32{0}) || !slices.Equal(nested, []int32{1, 0}) || !slices.Equal(late, []int32{10}) {
		t.Errorf("labels %v %v %v, want [0] [1 0] [10]", early, nested, late)
	}
}

// The remaining tests drive recycling through the paths on which a record
// changes hands or its task ends abnormally. They assert outcomes, but
// their real teeth are the race detector's: a record reused while anything
// still reads the previous task's state is a data race.

// TestRecycleAcrossSteals migrates records between workers: waves of
// SpawnN tasks that themselves spawn are stolen in batches, executed and
// retired on the thieves' lists, and reused for the thieves' own spawns.
func TestRecycleAcrossSteals(t *testing.T) {
	rt := New(4)
	var leaves atomic.Int64
	var dep countDep
	rounds := 200
	if testing.Short() {
		rounds = 40
	}
	rt.Run(func(f *Frame) {
		for r := 0; r < rounds; r++ {
			f.SpawnN(24, func(c *Frame, i int) {
				c.SetAttachment(i, r)
				tree(c, 3, &leaves)
				c.Sync()
				if c.Attachment(i) != r {
					t.Errorf("round %d child %d: attachment lost", r, i)
				}
			}, &dep)
			f.Sync()
		}
	})
	if want := int64(rounds * 24 * 8); leaves.Load() != want {
		t.Errorf("leaves = %d, want %d", leaves.Load(), want)
	}
	if p, c := dep.prepared.Load(), dep.completed.Load(); p != int64(rounds*24) || p != c {
		t.Errorf("dep protocol: %d Prepare, %d Complete, want %d each", p, c, rounds*24)
	}
	st := checkBooks(t, rt)
	if st.TaskReuses == 0 {
		t.Error("no record was ever reused")
	}
}

// TestRecycleAcrossCancel tears subtrees down mid-flight: a ScopedCall
// whose body cancels its own scope while its children are queued, running
// and parked leaves tasks that skip their bodies but still complete, and
// every one of their records goes back into circulation.
func TestRecycleAcrossCancel(t *testing.T) {
	cause := errors.New("stop")
	for _, mode := range modes {
		t.Run(mode, func(t *testing.T) {
			rt := newRuntime(t, 4, mode)
			var ran atomic.Int64
			err := rt.Run(func(f *Frame) {
				for r := 0; r < 50; r++ {
					got := f.ScopedCall(func(c *Frame) {
						for i := 0; i < 32; i++ {
							c.Spawn(func(g *Frame) {
								g.Spawn(func(*Frame) { ran.Add(1) })
								g.Block(func() {})
							})
							if i == 16 {
								c.CancelScope().Cancel(cause)
							}
						}
					})
					if !errors.Is(got, cause) {
						t.Errorf("round %d: ScopedCall returned %v, want %v", r, got, cause)
					}
					// The scope is gone; the caller's records must be intact.
					var after atomic.Int64
					f.SpawnN(8, func(*Frame, int) { after.Add(1) })
					f.Sync()
					if after.Load() != 8 {
						t.Errorf("round %d: %d of 8 tasks ran after the canceled scope", r, after.Load())
					}
				}
			})
			if err != nil {
				t.Fatalf("Run returned %v: the cancellation escaped its scope", err)
			}
			checkBooks(t, rt)
		})
	}
}

// TestRecycleAcrossPanic ends tasks by panic: the panicking task's record
// and those of the siblings it cancels are retired like any other.
func TestRecycleAcrossPanic(t *testing.T) {
	for _, mode := range modes {
		t.Run(mode, func(t *testing.T) {
			rt := newRuntime(t, 4, mode)
			err := rt.Run(func(f *Frame) {
				for r := 0; r < 50; r++ {
					got := f.ScopedCall(func(c *Frame) {
						for i := 0; i < 16; i++ {
							c.Spawn(func(g *Frame) {
								if i == 5 {
									panic("boom")
								}
								tree(g, 2, new(atomic.Int64))
							})
						}
					})
					var pe *PanicError
					if !errors.As(got, &pe) || pe.Value != "boom" {
						t.Errorf("round %d: ScopedCall returned %v, want the panic", r, got)
					}
				}
			})
			if err != nil {
				t.Fatalf("Run returned %v: the panic escaped its scope", err)
			}
			checkBooks(t, rt)
		})
	}
}
