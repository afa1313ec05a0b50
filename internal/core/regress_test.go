package core_test

// Regression tests for the serializability bug found by cmd/quickcheck
// (seed 139): values pushed by an already-completed producer sat in
// un-folded right/children views, a late pop-privileged task observed a
// permanently empty queue, silently skipped its pops, and the parent
// later popped the wrong head. These tests live in an external test
// package so they can drive the queue through the public swan API and
// the shared internal/qcheck program interpreter — exactly the stack the
// standalone verifier binary uses.

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/qcheck"
	"repro/swan"
)

// modes and newRuntime are package core's mode sweep (export_test.go).
// Sweeps that build their runtime out of reach (qcheck's Check) or read
// runtime-wide counters keep only "steal".
var modes, newRuntime = core.Modes, core.NewRuntime

// TestRegressionCompletedProducerVisibility is the distilled shape of
// quickcheck seed 139. The consumer A inherits an empty user view
// (because an earlier sibling took the owner's user view to its grave),
// spawns a pop child B — which takes A's empty user view — and then
// pushes. A's pushes land in a fresh segment whose head half is
// deposited into B's right view (correctly hidden from B). When B
// completes, the chain folds into A's children view, but no physical
// link into the queue's head chain exists until A itself completes — so
// A's own drain must perform the frontier fold or it wrongly sees a
// permanently empty queue and its values leak to the owner.
func TestRegressionCompletedProducerVisibility(t *testing.T) {
	for _, mode := range modes {
		for _, workers := range []int{1, 2, 4} {
			for _, segCap := range []int{1, 4} {
				name := fmt.Sprintf("%s/workers=%d/segcap=%d", mode, workers, segCap)
				t.Run(name, func(t *testing.T) {
					var bGot, aGot, ownerGot []int
					newRuntime(t, workers, mode).Run(func(f *swan.Frame) {
						q := swan.NewQueueWithCapacity[int](f, segCap)
						// X takes the owner's user view and completes:
						// the view is deposited into the owner's children
						// view, so A below starts with an empty user view.
						f.Spawn(func(c *swan.Frame) { q.Push(c, 1) }, swan.Push(q))
						f.Spawn(func(a *swan.Frame) {
							a.Spawn(func(b *swan.Frame) {
								bGot = append(bGot, q.Pop(b))
							}, swan.Pop(q))
							q.Push(a, 10)
							q.Push(a, 11)
							for !q.Empty(a) {
								aGot = append(aGot, q.Pop(a))
							}
							q.Push(a, 12)
						}, swan.PushPop(q))
						f.Sync()
						for !q.Empty(f) {
							ownerGot = append(ownerGot, q.Pop(f))
						}
					})
					if !reflect.DeepEqual(bGot, []int{1}) {
						t.Errorf("pop child consumed %v, want [1]", bGot)
					}
					if !reflect.DeepEqual(aGot, []int{10, 11}) {
						t.Errorf("drain task consumed %v, want [10 11] (completed producer's values lost)", aGot)
					}
					if !reflect.DeepEqual(ownerGot, []int{12}) {
						t.Errorf("owner consumed %v, want [12]", ownerGot)
					}
				})
			}
		}
	}
}

// TestRegressionNonBlockingConsumers drives the same completed-producer
// shape as TestRegressionCompletedProducerVisibility through the
// non-blocking consumer primitives only — TryPop and ReadSlice — which
// share the tryReachable fold rather than Empty's decision path. Without
// that fold both primitives are permanently blind to the deposited
// values (they only scan the physical head chain), so the retry loops
// below never finish; a generous deadline turns that into a failure
// instead of a test-suite hang.
func TestRegressionNonBlockingConsumers(t *testing.T) {
	for _, mode := range modes {
		t.Run(mode, func(t *testing.T) {
			var got []int
			deadline := time.Now().Add(30 * time.Second)
			newRuntime(t, 2, mode).Run(func(f *swan.Frame) {
				q := swan.NewQueueWithCapacity[int](f, 1)
				// X takes the owner's user view to its grave; B takes A's
				// empty user view, so A's pushes land in a dangling chain
				// deposited through B's right view.
				f.Spawn(func(c *swan.Frame) {}, swan.Push(q))
				f.Spawn(func(a *swan.Frame) {
					a.Spawn(func(b *swan.Frame) {}, swan.Pop(q))
					q.Push(a, 10)
					q.Push(a, 11)
					// TryPop may transiently fail while X is still live, but
					// once every preceding producer has completed it must
					// surface the deposited values.
					for len(got) < 1 && time.Now().Before(deadline) {
						if v, ok := q.TryPop(a); ok {
							got = append(got, v)
						} else {
							runtime.Gosched()
						}
					}
					for len(got) < 2 && time.Now().Before(deadline) {
						if rs := q.ReadSlice(a, 4); len(rs) > 0 {
							got = append(got, rs[0])
							q.ConsumeRead(a, 1)
						} else {
							runtime.Gosched()
						}
					}
				}, swan.PushPop(q))
				f.Sync()
			})
			if !reflect.DeepEqual(got, []int{10, 11}) {
				t.Fatalf("non-blocking consumers saw %v, want [10 11] (completed producer's values invisible to TryPop/ReadSlice)", got)
			}
		})
	}
}

// TestRegressionSeed139 replays the exact quickcheck program that
// exposed the bug, across every configuration the default quickcheck
// sweep exercises. It also pins the
// generator's seed compatibility: if the program generated for seed 139
// ever drifts, the historical failure report stops being reproducible.
func TestRegressionSeed139(t *testing.T) {
	p := qcheck.Generate(139)
	wantOracle := map[int][]int{
		0: {25},
		1: {17, 18},
		2: {0, 1, 2, 3, 4, 5, 6, 7},
		5: {8, 9, 10, 11, 12, 13, 14, 15, 16},
		7: {21, 22, 23, 24},
		8: {19, 20},
	}
	if !qcheck.Equal(p.Oracle, wantOracle) {
		t.Fatalf("generator drift: seed 139 oracle = %v, want %v", p.Oracle, wantOracle)
	}
	for _, workers := range []int{1, 2, runtime.NumCPU()} {
		for _, segCap := range []int{1, 7, 256} {
			got, ok := p.CheckFull(workers, segCap)
			if !ok {
				t.Fatalf("seed 139 workers=%d segcap=%d:\n got:    %v\n oracle: %v",
					workers, segCap, got.Consumed, p.Oracle)
			}
		}
	}
}

// TestRegressionQuickcheckSweep runs the front of the default quickcheck
// seed range (base seed 1, the same programs the CI job executes) so the
// bug class stays covered by plain `go test ./...` even where the
// standalone binary is never run. The full 200-program sweep lives in
// cmd/quickcheck; this keeps a representative slice in tier 1.
func TestRegressionQuickcheckSweep(t *testing.T) {
	seeds := 120
	if testing.Short() {
		seeds = 30
	}
	for i := 0; i < seeds; i++ {
		p := qcheck.Generate(1 + uint64(i))
		for _, workers := range []int{1, 2} {
			for _, segCap := range []int{1, 7} {
				got, ok := p.CheckFull(workers, segCap)
				if !ok {
					t.Fatalf("seed %d workers=%d segcap=%d:\n got:    %v\n oracle: %v",
						p.Seed, workers, segCap, got.Consumed, p.Oracle)
				}
			}
		}
	}
}

// TestRegressionMultiQueueSweep sweeps the extended generator — programs
// over several hyperqueues whose tasks also Sync mid-body, Call children
// synchronously, and consume through Empty-guarded TryPop and
// ReadSlice/ConsumeRead runs. This is
// the coverage the single-queue generator cannot provide: cross-queue
// privilege delegation, a consumer of one queue producing into another,
// the syncHook children-view fold firing between actions, and the
// lock-free non-blocking consumer miss path, all against the
// sharded-lock queue.
func TestRegressionMultiQueueSweep(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 15
	}
	for _, queues := range []int{2, 3} {
		t.Run(fmt.Sprintf("steal/queues=%d", queues), func(t *testing.T) {
			for i := 0; i < seeds; i++ {
				p := qcheck.GenerateMulti(1+uint64(i), queues)
				for _, workers := range []int{1, 2} {
					for _, segCap := range []int{1, 7} {
						got, ok := p.CheckFull(workers, segCap)
						if !ok {
							t.Fatalf("seed %d queues=%d workers=%d segcap=%d:\n got:    %v\n oracle: %v",
								p.Seed, queues, workers, segCap, got.Consumed, p.Oracle)
						}
					}
				}
			}
		})
	}
}
