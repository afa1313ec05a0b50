package sched

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunCompletes(t *testing.T) {
	var ran bool
	New(2).Run(func(f *Frame) { ran = true })
	if !ran {
		t.Fatal("root body did not run")
	}
}

func TestSpawnAllRun(t *testing.T) {
	var n atomic.Int64
	New(4).Run(func(f *Frame) {
		for i := 0; i < 100; i++ {
			f.Spawn(func(*Frame) { n.Add(1) })
		}
		f.Sync()
		if n.Load() != 100 {
			t.Errorf("after Sync: %d children ran, want 100", n.Load())
		}
	})
	if n.Load() != 100 {
		t.Fatalf("%d children ran, want 100", n.Load())
	}
}

func TestImplicitSyncAtFrameEnd(t *testing.T) {
	var inner atomic.Bool
	New(4).Run(func(f *Frame) {
		f.Spawn(func(c *Frame) {
			c.Spawn(func(*Frame) {
				time.Sleep(10 * time.Millisecond)
				inner.Store(true)
			})
			// No explicit Sync: the implicit one must cover the grandchild.
		})
		f.Sync()
		if !inner.Load() {
			t.Error("grandchild not finished at parent Sync despite implicit sync")
		}
	})
}

func TestNestedSpawnTree(t *testing.T) {
	var n atomic.Int64
	var rec func(f *Frame, depth int)
	rec = func(f *Frame, depth int) {
		n.Add(1)
		if depth == 0 {
			return
		}
		for i := 0; i < 3; i++ {
			f.Spawn(func(c *Frame) { rec(c, depth-1) })
		}
		f.Sync()
	}
	New(8).Run(func(f *Frame) { rec(f, 5) })
	want := int64(1 + 3 + 9 + 27 + 81 + 243)
	if n.Load() != want {
		t.Fatalf("ran %d frames, want %d", n.Load(), want)
	}
}

func TestParallelismBoundedBySlots(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	New(workers).Run(func(f *Frame) {
		for i := 0; i < 30; i++ {
			f.Spawn(func(*Frame) {
				c := cur.Add(1)
				for {
					p := peak.Load()
					if c <= p || peak.CompareAndSwap(p, c) {
						break
					}
				}
				time.Sleep(2 * time.Millisecond)
				cur.Add(-1)
			})
		}
		f.Sync()
	})
	if p := peak.Load(); p > workers {
		t.Fatalf("peak concurrency %d exceeds %d worker slots", p, workers)
	}
	if p := peak.Load(); p < 2 {
		t.Fatalf("peak concurrency %d; tasks did not run in parallel", p)
	}
}

func TestBlockReleasesSlot(t *testing.T) {
	// One worker slot: a task blocking via Block must let another task run.
	rt := New(1)
	unblock := make(chan struct{})
	var order []string
	var mu sync.Mutex
	rt.Run(func(f *Frame) {
		f.Spawn(func(c *Frame) {
			c.Block(func() { <-unblock })
			mu.Lock()
			order = append(order, "blocked-task")
			mu.Unlock()
		})
		f.Spawn(func(*Frame) {
			mu.Lock()
			order = append(order, "runner")
			mu.Unlock()
			close(unblock)
		})
		f.Sync()
	})
	if len(order) != 2 || order[0] != "runner" {
		t.Fatalf("order = %v; blocked task held the only slot", order)
	}
}

func TestSyncReleasesSlot(t *testing.T) {
	// One slot: parent Sync must not starve the child it waits for.
	done := make(chan struct{})
	go func() {
		New(1).Run(func(f *Frame) {
			f.Spawn(func(*Frame) {})
			f.Sync()
		})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("deadlock: Sync with one worker slot")
	}
}

func TestProgramOrderLabels(t *testing.T) {
	type rec struct{ a, b, c *Frame }
	var r rec
	New(2).Run(func(root *Frame) {
		var wg sync.WaitGroup
		wg.Add(3)
		// Frames are comparable only while their tasks run: each task
		// parks until the comparisons are done.
		compared := make(chan struct{})
		defer close(compared)
		hold := func(c *Frame) { wg.Done(); c.Block(func() { <-compared }) }
		root.Spawn(func(c *Frame) { r.a = c; hold(c) })
		root.Spawn(func(c *Frame) {
			r.b = c
			c.Spawn(func(g *Frame) { r.c = g; hold(g) })
			hold(c)
		})
		root.Block(wg.Wait)
		if !r.a.Before(r.b) {
			t.Error("a must precede b")
		}
		if r.b.Before(r.a) {
			t.Error("b must not precede a")
		}
		if !r.a.Before(r.c) {
			t.Error("a must precede nested c")
		}
		if !r.b.IsAncestorOf(r.c) {
			t.Error("b must be ancestor of c")
		}
		if r.b.Before(r.c) || r.c.Before(r.b) {
			// An ancestor relationship: Before treats the ancestor as earlier
			// (prefix), so b.Before(c) is actually true by label order.
			// Visibility logic must combine Before with IsAncestorOf; here we
			// just pin the label semantics.
		}
		if !root.IsAncestorOf(r.a) || !root.IsAncestorOf(r.c) {
			t.Error("root must be ancestor of all")
		}
		if root.IsAncestorOf(root) {
			t.Error("a frame is not its own ancestor")
		}
	})
}

func TestCallRunsInline(t *testing.T) {
	var seq []int
	New(4).Run(func(f *Frame) {
		seq = append(seq, 1)
		f.Call(func(*Frame) { seq = append(seq, 2) })
		seq = append(seq, 3)
	})
	if len(seq) != 3 || seq[0] != 1 || seq[1] != 2 || seq[2] != 3 {
		t.Fatalf("seq = %v, want [1 2 3]", seq)
	}
}

// depRecorder records the phase protocol of the Dep interface.
type depRecorder struct {
	mu     sync.Mutex
	events []string
	gate   chan struct{}
}

func (d *depRecorder) log(s string) {
	d.mu.Lock()
	d.events = append(d.events, s)
	d.mu.Unlock()
}

func (d *depRecorder) Prepare(parent, child *Frame) { d.log("prepare") }
func (d *depRecorder) Wait(child *Frame) {
	d.log("wait")
	if d.gate != nil {
		<-d.gate
	}
}
func (d *depRecorder) Complete(parent, child *Frame) { d.log("complete") }

func TestDepProtocolOrder(t *testing.T) {
	d := &depRecorder{}
	New(2).Run(func(f *Frame) {
		f.Spawn(func(*Frame) { d.log("body") }, d)
		f.Sync()
	})
	want := []string{"prepare", "wait", "body", "complete"}
	if len(d.events) != len(want) {
		t.Fatalf("events = %v, want %v", d.events, want)
	}
	for i := range want {
		if d.events[i] != want[i] {
			t.Fatalf("events = %v, want %v", d.events, want)
		}
	}
}

func TestDepPrepareInProgramOrder(t *testing.T) {
	var mu sync.Mutex
	var order []int
	mk := func(id int) Dep {
		return depFunc{prepare: func(p, c *Frame) {
			mu.Lock()
			order = append(order, id)
			mu.Unlock()
		}}
	}
	New(4).Run(func(f *Frame) {
		for i := 0; i < 20; i++ {
			f.Spawn(func(*Frame) {}, mk(i))
		}
		f.Sync()
	})
	for i, v := range order {
		if v != i {
			t.Fatalf("Prepare order = %v; not program order", order)
		}
	}
}

func TestDepGateDelaysChild(t *testing.T) {
	d := &depRecorder{gate: make(chan struct{})}
	var bodyRan atomic.Bool
	rt := New(2)
	done := make(chan struct{})
	go func() {
		rt.Run(func(f *Frame) {
			f.Spawn(func(*Frame) { bodyRan.Store(true) }, d)
			f.Sync()
		})
		close(done)
	}()
	time.Sleep(20 * time.Millisecond)
	if bodyRan.Load() {
		t.Fatal("child ran before dep gate opened")
	}
	close(d.gate)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("child never ran after gate opened")
	}
	if !bodyRan.Load() {
		t.Fatal("child body skipped")
	}
}

// TestGatedChildDoesNotHoldSlot: a child blocked in Wait must not consume
// a worker slot; other work proceeds even with one slot.
func TestGatedChildDoesNotHoldSlot(t *testing.T) {
	d := &depRecorder{gate: make(chan struct{})}
	var ran atomic.Bool
	rt := New(1)
	done := make(chan struct{})
	go func() {
		rt.Run(func(f *Frame) {
			f.Spawn(func(*Frame) {}, d)
			f.Spawn(func(*Frame) { ran.Store(true); close(d.gate) })
			f.Sync()
		})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("deadlock: gated child starved the runnable one")
	}
	if !ran.Load() {
		t.Fatal("second child never ran")
	}
}

type depFunc struct {
	prepare  func(p, c *Frame)
	wait     func(c *Frame)
	complete func(p, c *Frame)
}

func (d depFunc) Prepare(p, c *Frame) {
	if d.prepare != nil {
		d.prepare(p, c)
	}
}
func (d depFunc) Wait(c *Frame) {
	if d.wait != nil {
		d.wait(c)
	}
}
func (d depFunc) Complete(p, c *Frame) {
	if d.complete != nil {
		d.complete(p, c)
	}
}

func TestCompleteBeforeParentSyncReturns(t *testing.T) {
	var completed atomic.Bool
	d := depFunc{complete: func(p, c *Frame) {
		time.Sleep(5 * time.Millisecond)
		completed.Store(true)
	}}
	New(2).Run(func(f *Frame) {
		f.Spawn(func(*Frame) {}, d)
		f.Sync()
		if !completed.Load() {
			t.Error("Sync returned before dep Complete ran")
		}
	})
}

// hookFunc adapts a func to SyncHook.
type hookFunc func()

func (h hookFunc) OnSync() { h() }

func TestSyncHooksRunAfterChildren(t *testing.T) {
	var childDone atomic.Bool
	var hookSawChild atomic.Bool
	New(2).Run(func(f *Frame) {
		f.AddSyncHook(hookFunc(func() { hookSawChild.Store(childDone.Load()) }))
		f.Spawn(func(*Frame) {
			time.Sleep(5 * time.Millisecond)
			childDone.Store(true)
		})
		f.Sync()
	})
	if !hookSawChild.Load() {
		t.Fatal("sync hook ran before children completed")
	}
}

func TestAttachments(t *testing.T) {
	New(1).Run(func(f *Frame) {
		if f.Attachment("k") != nil {
			t.Error("unexpected attachment")
		}
		f.SetAttachment("k", 42)
		if f.Attachment("k") != 42 {
			t.Error("attachment lost")
		}
		f.SetAttachment("k", 43)
		if f.Attachment("k") != 43 {
			t.Error("attachment not overwritten")
		}
	})
}

func TestNestedRunSharesSlots(t *testing.T) {
	rt := New(2)
	var n atomic.Int64
	rt.Run(func(f *Frame) {
		f.Spawn(func(*Frame) { n.Add(1) })
		f.Sync()
	})
	rt.Run(func(f *Frame) {
		f.Spawn(func(*Frame) { n.Add(1) })
		f.Sync()
	})
	if n.Load() != 2 {
		t.Fatalf("n = %d, want 2", n.Load())
	}
}

func TestWorkersMinimumOne(t *testing.T) {
	if got := New(0).Workers(); got != 1 {
		t.Fatalf("Workers() = %d, want 1", got)
	}
	if got := New(-5).Workers(); got != 1 {
		t.Fatalf("Workers() = %d, want 1", got)
	}
}

func TestManySmallTasksStress(t *testing.T) {
	var n atomic.Int64
	New(8).Run(func(f *Frame) {
		for i := 0; i < 5000; i++ {
			f.Spawn(func(*Frame) { n.Add(1) })
		}
		f.Sync()
	})
	if n.Load() != 5000 {
		t.Fatalf("ran %d, want 5000", n.Load())
	}
}

func BenchmarkSpawnSync(b *testing.B) {
	rt := New(4)
	rt.Run(func(f *Frame) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.Spawn(func(*Frame) {})
			if i%64 == 63 {
				f.Sync()
			}
		}
		f.Sync()
	})
}

func TestTaskPanicPropagatesFromRun(t *testing.T) {
	var siblingRan atomic.Bool
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Run did not re-raise the task panic")
		}
		if r != "boom" {
			t.Fatalf("panic value = %v, want boom", r)
		}
		if !siblingRan.Load() {
			t.Error("sibling task did not complete before Run returned")
		}
	}()
	// The panic cancels the run's scope, and a task that has not started
	// by then is skipped: the panic waits for the sibling to be running.
	started := make(chan struct{})
	New(4).Run(func(f *Frame) {
		f.Spawn(func(*Frame) { <-started; panic("boom") })
		f.Spawn(func(*Frame) {
			close(started)
			time.Sleep(10 * time.Millisecond)
			siblingRan.Store(true)
		})
		f.Sync()
	})
}

func TestFirstPanicWins(t *testing.T) {
	defer func() {
		r := recover()
		if r != "first" && r != "second" {
			t.Fatalf("panic value = %v", r)
		}
	}()
	New(1).Run(func(f *Frame) {
		f.Spawn(func(*Frame) { panic("first") })
		f.Sync()
		f.Spawn(func(*Frame) { panic("second") })
		f.Sync()
	})
}

func TestPanicDoesNotHangSync(t *testing.T) {
	done := make(chan struct{})
	go func() {
		defer func() { recover(); close(done) }()
		New(2).Run(func(f *Frame) {
			f.Spawn(func(c *Frame) {
				c.Spawn(func(*Frame) {}) // grandchild still completes
				panic("child dies")
			})
			f.Sync()
		})
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Sync hung after task panic")
	}
}

func TestRuntimeReusableAfterPanic(t *testing.T) {
	rt := New(2)
	func() {
		defer func() { recover() }()
		rt.Run(func(f *Frame) { panic("x") })
	}()
	var ran bool
	rt.Run(func(f *Frame) { ran = true })
	if !ran {
		t.Fatal("runtime unusable after a recovered panic")
	}
}

func TestParallelFlag(t *testing.T) {
	New(1).Run(func(f *Frame) {
		if f.Parallel() {
			t.Error("Parallel() true with one worker")
		}
	})
	New(2).Run(func(f *Frame) {
		if !f.Parallel() {
			t.Error("Parallel() false with two workers")
		}
	})
}

// TestRuntimeShared checks the runtime-scoped singleton store: one create
// per key per runtime, stable across calls and concurrent first users,
// independent between runtimes.
func TestRuntimeShared(t *testing.T) {
	type keyA struct{}
	type keyB struct{}
	rt := New(2)
	var creates atomic.Int32
	mk := func() any { creates.Add(1); return new(int) }
	var wg sync.WaitGroup
	got := make([]any, 8)
	for i := range got {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = rt.Shared(keyA{}, mk)
		}()
	}
	wg.Wait()
	for i := 1; i < len(got); i++ {
		if got[i] != got[0] {
			t.Fatal("Shared returned distinct values for the same key")
		}
	}
	if n := creates.Load(); n != 1 {
		t.Fatalf("create ran %d times, want 1", n)
	}
	if rt.Shared(keyB{}, mk) == got[0] {
		t.Fatal("distinct keys share a value")
	}
	if New(2).Shared(keyA{}, mk) == got[0] {
		t.Fatal("distinct runtimes share a value")
	}
}
