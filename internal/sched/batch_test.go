package sched

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestSpawnNRunsAll checks that every batched child runs exactly once
// with its own index.
func TestSpawnNRunsAll(t *testing.T) {
	for _, mode := range modes {
		t.Run(mode, func(t *testing.T) {
			const n = 100
			var ran [n]atomic.Int32
			newRuntime(t, 4, mode).Run(func(f *Frame) {
				f.SpawnN(n, func(c *Frame, i int) { ran[i].Add(1) })
				f.Sync()
			})
			for i := range ran {
				if got := ran[i].Load(); got != 1 {
					t.Fatalf("child %d ran %d times, want 1", i, got)
				}
			}
		})
	}
}

// TestSpawnNZeroAndNegative checks the degenerate batch sizes are no-ops.
func TestSpawnNZeroAndNegative(t *testing.T) {
	New(2).Run(func(f *Frame) {
		f.SpawnN(0, func(*Frame, int) { t.Error("child of empty batch ran") })
		f.SpawnN(-3, func(*Frame, int) { t.Error("child of negative batch ran") })
		f.Sync()
	})
}

// TestSpawnNPrepareInProgramOrder checks the serial-elision property the
// hyperqueue depends on: dep Prepare runs synchronously in the parent,
// in index order, exactly as consecutive Spawn calls would.
func TestSpawnNPrepareInProgramOrder(t *testing.T) {
	var mu sync.Mutex
	var order []int32
	d := depFunc{prepare: func(p, c *Frame) {
		mu.Lock()
		order = append(order, c.index)
		mu.Unlock()
	}}
	New(4).Run(func(f *Frame) {
		f.Spawn(func(*Frame) {}) // offset the spawn indices
		f.SpawnN(20, func(*Frame, int) {}, d)
		f.Sync()
	})
	if len(order) != 20 {
		t.Fatalf("Prepare ran %d times, want 20", len(order))
	}
	for i, v := range order {
		if v != int32(i+1) {
			t.Fatalf("Prepare order = %v; not program order", order)
		}
	}
}

// TestSpawnBatchPerChildDeps gives each batched child its own dep and
// checks the full protocol runs per child.
func TestSpawnBatchPerChildDeps(t *testing.T) {
	const n = 16
	recs := make([]*depRecorder, n)
	children := make([]BatchChild, n)
	var ran [n]atomic.Int32
	for i := range children {
		i := i
		recs[i] = &depRecorder{}
		children[i] = BatchChild{
			Body: func(*Frame) { ran[i].Add(1) },
			Deps: []Dep{recs[i]},
		}
	}
	New(4).Run(func(f *Frame) {
		f.SpawnBatch(children)
		f.Sync()
	})
	for i := range recs {
		if ran[i].Load() != 1 {
			t.Fatalf("child %d ran %d times", i, ran[i].Load())
		}
		want := []string{"prepare", "wait", "body?", "complete"}
		got := recs[i].events
		if len(got) != 3 || got[0] != "prepare" || got[1] != "wait" || got[2] != "complete" {
			t.Fatalf("child %d dep events = %v, want %v minus body", i, got, want)
		}
	}
}

// TestSpawnNPanicInPrepare checks the mid-batch Prepare failure path:
// the failing child and the unprepared rest are rolled back, the fully
// prepared children are still published (their dep protocol completes,
// so nothing leaks), Sync does not hang, and the panic reaches Run's
// caller. Since panics cancel the run's scope, prepared children that
// had not started by the time the panic was recorded are skipped — at
// most the prepared prefix runs, never the rolled-back suffix.
func TestSpawnNPanicInPrepare(t *testing.T) {
	const n, failAt = 10, 6
	var prepared atomic.Int32
	var completed atomic.Int32
	d := depFunc{
		prepare: func(p, c *Frame) {
			if prepared.Add(1) == failAt+1 {
				panic("prepare failed")
			}
		},
		complete: func(p, c *Frame) { completed.Add(1) },
	}
	var ran atomic.Int32
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("Prepare panic did not propagate out of Run")
		}
		if got := ran.Load(); got > failAt {
			t.Fatalf("%d children ran, want at most the %d prepared before the failure", got, failAt)
		}
		if got := completed.Load(); got != failAt {
			t.Fatalf("%d dep completions, want %d (every prepared child must complete)", got, failAt)
		}
	}()
	New(2).Run(func(f *Frame) {
		f.SpawnN(n, func(c *Frame, i int) { ran.Add(1) }, d)
		f.Sync()
	})
}

// TestSpawnNStress interleaves batched and plain spawns across a deep
// tree to shake out accounting bugs in live-child tracking and the
// batched wake sweep.
func TestSpawnNStress(t *testing.T) {
	var count atomic.Int64
	var rec func(f *Frame, depth int)
	rec = func(f *Frame, depth int) {
		if depth == 0 {
			count.Add(1)
			return
		}
		f.SpawnN(3, func(c *Frame, i int) { rec(c, depth-1) })
		f.Spawn(func(c *Frame) { rec(c, depth-1) })
		f.Sync()
	}
	New(4).Run(func(f *Frame) { rec(f, 6) })
	want := int64(4 * 4 * 4 * 4 * 4 * 4) // 4^6 leaves
	if got := count.Load(); got != want {
		t.Fatalf("leaves = %d, want %d", got, want)
	}
}
