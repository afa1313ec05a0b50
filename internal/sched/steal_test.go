package sched

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestStealsExtractBuriedWork pins the dispatch substrate itself: while a
// task's worker is buried under a Block (where, unlike Sync, no local
// helping happens), its deque can only be drained by thieves. Root spawns
// children and blocks on a channel a child closes, so every child must
// arrive at its executing worker via a FIFO steal.
func TestStealsExtractBuriedWork(t *testing.T) {
	rt := New(2)
	var n atomic.Int64
	ch := make(chan struct{})
	rt.Run(func(f *Frame) {
		for i := 0; i < 8; i++ {
			f.Spawn(func(*Frame) {
				if n.Add(1) == 8 {
					close(ch)
				}
			})
		}
		f.Block(func() { <-ch })
		f.Sync()
	})
	if n.Load() != 8 {
		t.Fatalf("ran %d children, want 8", n.Load())
	}
	if s := rt.Stats().Steals; s == 0 {
		t.Fatalf("Stats().Steals = 0; children of a buried owner can only run via steals")
	}
}

// treeHash computes a deterministic value over a spawn tree: each frame
// combines its spawn index with its children's results in program order
// (the parent reads them after Sync, which is a happens-before edge).
// Any scheduling bug that loses, duplicates, or mis-parents a task
// changes the hash.
func treeHash(f *Frame, depth, branch int, seed uint64) uint64 {
	h := seed*0x9e3779b97f4a7c15 + uint64(depth)
	if depth == 0 {
		return h
	}
	results := make([]uint64, branch)
	for i := 0; i < branch; i++ {
		idx := i
		f.Spawn(func(c *Frame) {
			results[idx] = treeHash(c, depth-1, branch, seed+uint64(idx)+1)
		})
	}
	f.Sync()
	for _, r := range results {
		h = h*1099511628211 ^ r
	}
	return h
}

// TestDeterminismAcrossWorkers runs the same deep spawn tree at P=1, P=2
// and P=NumCPU; the reduction must be identical. Scale-free means only the
// worker count varies: nothing in the program depends on it.
func TestDeterminismAcrossWorkers(t *testing.T) {
	depth, branch := 7, 3
	if testing.Short() {
		depth = 5
	}
	var want uint64
	for i, workers := range []int{1, runtime.NumCPU(), 2} {
		var got uint64
		New(workers).Run(func(f *Frame) {
			got = treeHash(f, depth, branch, 42)
		})
		if i == 0 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("P=%d: hash %#x, want %#x (P=1)", workers, got, want)
		}
	}
}

// TestStealTorture hammers the deques from many directions at once: a
// deep unbalanced tree where every interior frame syncs (burying its
// worker and forcing compensation) while leaves are stolen concurrently.
func TestStealTorture(t *testing.T) {
	depth := 9
	if testing.Short() {
		depth = 7
	}
	var n atomic.Int64
	var rec func(f *Frame, d int)
	rec = func(f *Frame, d int) {
		n.Add(1)
		if d == 0 {
			return
		}
		// Unbalanced: one heavy child, two light ones.
		f.Spawn(func(c *Frame) { rec(c, d-1) })
		f.Spawn(func(c *Frame) { n.Add(1) })
		f.Spawn(func(c *Frame) { n.Add(1) })
		f.Sync()
	}
	rt := New(runtime.NumCPU())
	rt.Run(func(f *Frame) { rec(f, depth) })
	want := int64(depth + 1 + 2*depth)
	if n.Load() != want {
		t.Fatalf("ran %d, want %d", n.Load(), want)
	}
}

// TestWideFanoutStress pushes thousands of tasks through the deques with
// repeated syncs, at several worker counts.
func TestWideFanoutStress(t *testing.T) {
	total := 20000
	if testing.Short() {
		total = 4000
	}
	for _, workers := range []int{1, 2, runtime.NumCPU()} {
		t.Run(fmt.Sprintf("P=%d", workers), func(t *testing.T) {
			var n atomic.Int64
			rt := New(workers)
			rt.Run(func(f *Frame) {
				for i := 0; i < total; i++ {
					f.Spawn(func(*Frame) { n.Add(1) })
					if i%512 == 511 {
						f.Sync()
					}
				}
				f.Sync()
			})
			if int(n.Load()) != total {
				t.Fatalf("ran %d, want %d", n.Load(), total)
			}
		})
	}
}

// TestStealBatchModes runs the determinism tree with steal-half batching
// at P=NumCPU: the result must match the steal-free P=1 run, and the
// stolen-task count can never fall below the sweep count.
func TestStealBatchModes(t *testing.T) {
	depth, branch := 6, 3
	var want uint64
	for i, workers := range []int{1, runtime.NumCPU()} {
		rt := New(workers)
		var got uint64
		rt.Run(func(f *Frame) {
			got = treeHash(f, depth, branch, 7)
		})
		if i == 0 {
			want = got
		} else if got != want {
			t.Fatalf("P=%d: hash %#x, want %#x (P=1)", workers, got, want)
		}
		if s := rt.Stats(); s.StolenTasks < s.Steals {
			t.Fatalf("P=%d: StolenTasks=%d < Steals=%d", workers, s.StolenTasks, s.Steals)
		}
	}
}

// TestStealBatchExtractsBuriedRun is TestStealsExtractBuriedWork with a
// wide run: a buried owner's whole backlog must drain through batch
// steals, and the extras parked in a thief's deque must not be lost.
func TestStealBatchExtractsBuriedRun(t *testing.T) {
	rt := New(2)
	const total = 64
	var n atomic.Int64
	ch := make(chan struct{})
	rt.Run(func(f *Frame) {
		// One atomic publication of the whole run: the first sweep over
		// the buried owner's deque must see a multi-task backlog.
		f.SpawnN(total, func(*Frame, int) {
			if n.Add(1) == total {
				close(ch)
			}
		})
		f.Block(func() { <-ch })
		f.Sync()
	})
	if n.Load() != total {
		t.Fatalf("ran %d children, want %d", n.Load(), total)
	}
	s := rt.Stats()
	if s.StolenTasks <= s.Steals {
		t.Fatalf("no multi-task sweep happened: StolenTasks=%d Steals=%d", s.StolenTasks, s.Steals)
	}
}

// workersAlive reports the number of live worker goroutines (test hook).
func (rt *Runtime) workersAlive() int {
	rt.pool.mu.Lock()
	defer rt.pool.mu.Unlock()
	return rt.pool.alive
}

// TestIdleParkAndQuiesce exercises the park protocol: with more workers
// than work, the surplus workers must park (not spin) while the run is
// active, wake for new work, and exit once the runtime quiesces.
func TestIdleParkAndQuiesce(t *testing.T) {
	rt := New(4)
	var n atomic.Int64
	rt.Run(func(f *Frame) {
		// Phase 1: a lone slow task; compensating workers find nothing
		// else and must park.
		f.Spawn(func(*Frame) {
			time.Sleep(30 * time.Millisecond)
			n.Add(1)
		})
		f.Sync()
		// Phase 2: parked workers must wake for a new burst.
		for i := 0; i < 64; i++ {
			f.Spawn(func(*Frame) { n.Add(1) })
		}
		f.Sync()
	})
	if n.Load() != 65 {
		t.Fatalf("ran %d tasks, want 65", n.Load())
	}
	if rt.Stats().Parks == 0 {
		t.Error("no worker ever parked during an idle phase")
	}
	// Quiesce: with no Run active, every worker must exit.
	deadline := time.Now().Add(5 * time.Second)
	for rt.workersAlive() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d workers still alive after quiesce", rt.workersAlive())
		}
		time.Sleep(time.Millisecond)
	}
	// And the runtime must come back up for a later Run.
	var again atomic.Int64
	rt.Run(func(f *Frame) {
		for i := 0; i < 16; i++ {
			f.Spawn(func(*Frame) { again.Add(1) })
		}
		f.Sync()
	})
	if again.Load() != 16 {
		t.Fatalf("post-quiesce run executed %d tasks, want 16", again.Load())
	}
}

// TestBlockCompensationUnderPressure floods a small runtime with tasks
// that all block mid-body; compensating workers must keep the system
// moving and the P-bound must hold.
func TestBlockCompensationUnderPressure(t *testing.T) {
	const workers = 2
	rt := New(workers)
	var cur, peak atomic.Int64
	gate := make(chan struct{})
	var reached atomic.Int64
	total := 32
	done := make(chan struct{})
	go func() {
		rt.Run(func(f *Frame) {
			for i := 0; i < total; i++ {
				f.Spawn(func(c *Frame) {
					c.Block(func() {
						reached.Add(1)
						<-gate
					})
					v := cur.Add(1)
					for {
						p := peak.Load()
						if v <= p || peak.CompareAndSwap(p, v) {
							break
						}
					}
					cur.Add(-1)
				})
			}
			f.Sync()
		})
		close(done)
	}()
	// All 32 tasks must reach the blocking point despite only 2 workers:
	// each Block releases capacity and compensates.
	deadline := time.Now().Add(5 * time.Second)
	for reached.Load() != int64(total) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d tasks reached their Block; compensation stalled", reached.Load(), total)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("tasks never resumed after the gate opened")
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("peak post-block concurrency %d exceeds %d workers", p, workers)
	}
}

// TestNestedRunFromTask pins the nested-Run contract: with a spare
// worker (workers >= 2), Run called from inside a running task
// compensates for the buried caller and completes.
func TestNestedRunFromTask(t *testing.T) {
	rt := New(2)
	var inner atomic.Int64
	done := make(chan struct{})
	go func() {
		rt.Run(func(f *Frame) {
			rt.Run(func(g *Frame) {
				for i := 0; i < 8; i++ {
					g.Spawn(func(*Frame) { inner.Add(1) })
				}
				g.Sync()
			})
		})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("nested Run deadlocked despite a spare worker")
	}
	if inner.Load() != 8 {
		t.Fatalf("nested run executed %d tasks, want 8", inner.Load())
	}
}
