package swan_test

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/swan"
)

func TestProduceTransformDrain(t *testing.T) {
	const n = 300
	var got []string
	rt := swan.New(8)
	rt.Run(func(f *swan.Frame) {
		nums := swan.NewQueue[int](f)
		strs := swan.NewQueue[string](f)
		f.Spawn(func(mid *swan.Frame) {
			inner := swan.NewQueueWithCapacity[int](mid, 32)
			swan.Produce(mid, inner, func(c *swan.Frame, push func(int)) {
				for i := 0; i < n; i++ {
					push(i)
				}
			})
			swan.TransformEach(mid, inner, nums, func(v int) int { return v * v })
		}, swan.Push(nums))
		_ = strs
		swan.Drain(f, nums, func(v int) { got = append(got, strconv.Itoa(v)) })
		f.Sync()
	})
	if len(got) != n {
		t.Fatalf("drained %d, want %d", len(got), n)
	}
	for i, s := range got {
		if s != strconv.Itoa(i*i) {
			t.Fatalf("got[%d] = %s, want %d", i, s, i*i)
		}
	}
}

func TestTransformSerialFanOut(t *testing.T) {
	var got []int
	rt := swan.New(4)
	rt.Run(func(f *swan.Frame) {
		out := swan.NewQueue[int](f)
		f.Spawn(func(mid *swan.Frame) {
			in := swan.NewQueue[int](mid)
			swan.Produce(mid, in, func(c *swan.Frame, push func(int)) {
				for i := 1; i <= 5; i++ {
					push(i)
				}
			})
			// Each input k expands to k outputs — the variable fan-out
			// plain task dataflow cannot express.
			swan.TransformSerial(mid, in, out, func(k int, emit func(int)) {
				for j := 0; j < k; j++ {
					emit(k*10 + j)
				}
			})
		}, swan.Push(out))
		swan.Drain(f, out, func(v int) { got = append(got, v) })
		f.Sync()
	})
	want := []int{10, 20, 21, 30, 31, 32, 40, 41, 42, 43, 50, 51, 52, 53, 54}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestDrainSlices(t *testing.T) {
	const n = 500
	var got []int
	rt := swan.New(4)
	rt.Run(func(f *swan.Frame) {
		q := swan.NewQueueWithCapacity[int](f, 64)
		swan.Produce(f, q, func(c *swan.Frame, push func(int)) {
			for i := 0; i < n; i++ {
				push(i)
			}
		})
		swan.DrainSlices(f, q, 32, func(s []int) {
			got = append(got, s...)
		})
		f.Sync()
	})
	if len(got) != n {
		t.Fatalf("drained %d, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d; order broken", i, v)
		}
	}
}

func TestThreeStageTypedPipeline(t *testing.T) {
	// nums -> squares (parallel) -> strings (serial fan-out) -> sink,
	// exercising both transform kinds chained through typed queues.
	var lines []string
	rt := swan.New(8)
	rt.Run(func(f *swan.Frame) {
		strs := swan.NewQueue[string](f)
		f.Spawn(func(m2 *swan.Frame) {
			squares := swan.NewQueue[int](m2)
			m2.Spawn(func(m1 *swan.Frame) {
				nums := swan.NewQueue[int](m1)
				swan.Produce(m1, nums, func(c *swan.Frame, push func(int)) {
					for i := 0; i < 50; i++ {
						push(i)
					}
				})
				swan.TransformEach(m1, nums, squares, func(v int) int { return v * v })
			}, swan.Push(squares))
			swan.TransformSerial(m2, squares, strs, func(v int, emit func(string)) {
				emit("sq=" + strconv.Itoa(v))
			})
		}, swan.Push(strs))
		swan.Drain(f, strs, func(s string) { lines = append(lines, s) })
		f.Sync()
	})
	if len(lines) != 50 {
		t.Fatalf("got %d lines, want 50", len(lines))
	}
	for i, s := range lines {
		if s != "sq="+strconv.Itoa(i*i) {
			t.Fatalf("lines[%d] = %q", i, s)
		}
	}
}

func noop(*swan.Frame) {}

// TestSpawnWithQueueDepAllocatesNothing is the public-API end of the
// spawn path's allocation budget (internal/sched holds the rest): in
// steady state a spawn with a pushdep takes its task record and its view
// set from the free lists, and the dependence itself is a pointer the
// queue already holds. One worker, so that no thief carries records away.
func TestSpawnWithQueueDepAllocatesNothing(t *testing.T) {
	swan.NewWithPolicy(1, swan.PolicySteal).Run(func(f *swan.Frame) {
		q := swan.NewQueue[int](f)
		q2 := swan.NewQueue[string](f)
		v := swan.NewVersioned(0)
		ops := map[string]func(){
			"Spawn(Push)+Sync":      func() { f.Spawn(noop, swan.Push(q)); f.Sync() },
			"Spawn(PushPop)+Sync":   func() { f.Spawn(noop, swan.PushPop(q)); f.Sync() },
			"Spawn(Push, Pop)+Sync": func() { f.Spawn(noop, swan.Push(q), swan.Pop(q2)); f.Sync() },
			"SpawnN(16, Push)+Sync": func() { f.SpawnN(16, func(*swan.Frame, int) {}, swan.Push(q)); f.Sync() },
			"Spawn(In)+Sync":        func() { f.Spawn(noop, swan.In(v)); f.Sync() },
		}
		for name, op := range ops {
			for i := 0; i < 4; i++ {
				op()
			}
			// A versioned object's In binds the reader to a version: one
			// small record per spawn, by design.
			budget := 0.0
			if name == "Spawn(In)+Sync" {
				budget = 1
			}
			if got := testing.AllocsPerRun(200, op); got > budget {
				t.Errorf("%s: %v allocs per run, budget %v", name, got, budget)
			}
		}
	})
}

// TestTransformSerialSteadyStateAllocs moves 50 000 elements through
// Produce → TransformSerial → Drain and charges the whole run's
// allocations to them: set-up costs a few hundred, so anything near one
// per element is a per-element allocation (the method value
// TransformSerial used to re-evaluate in its loop).
func TestTransformSerialSteadyStateAllocs(t *testing.T) {
	const n = 50_000
	rt := swan.New(2)
	sum := 0
	run := func() {
		sum = 0
		rt.Run(func(f *swan.Frame) {
			q1 := swan.NewQueue[int](f)
			q2 := swan.NewQueue[int](f)
			swan.Produce(f, q1, func(c *swan.Frame, push func(int)) {
				for i := 0; i < n; i++ {
					push(i)
				}
			})
			swan.TransformSerial(f, q1, q2, func(v int, push func(int)) { push(v + 1) })
			swan.Drain(f, q2, func(v int) { sum += v })
			f.Sync()
		})
	}
	run() // warm the segment pools
	if per := testing.AllocsPerRun(3, run) / n; per > 0.02 {
		t.Errorf("%.3f allocs per element, want ~0", per)
	}
	if want := n * (n + 1) / 2; sum != want {
		t.Errorf("sum = %d, want %d", sum, want)
	}
}

// TestHelpersMatchSerialElision is the helpers' conformance table: the
// batched consumer loops of TransformSerial, TransformEach and Drain
// against the plain serial loop, over segment capacities that make a
// batch span one, some and many segments, bounds below, at and above the
// batch, and both substrates. TransformSerial's stage emits 0, 1 or 3
// outputs per input, so an output batch never lines up with an input one.
// TransformEach's output queue stays unbounded: its pushing children run
// out of serial order, which a bound must not meet (OPERATIONS.md).
func TestHelpersMatchSerialElision(t *testing.T) {
	const n = 700
	emit := func(v int, push func(int)) {
		for j := 0; j < []int{0, 1, 3}[v%3]; j++ {
			push(v*10 + j)
		}
	}
	var wantSerial, wantEach []int
	for v := 0; v < n; v++ {
		emit(v, func(o int) { wantSerial = append(wantSerial, o) })
		wantEach = append(wantEach, v*v)
	}
	for _, policy := range []swan.SpawnPolicy{swan.PolicySteal, swan.PolicyGoroutine} {
		for _, workers := range []int{1, 2, 4} {
			for _, segCap := range []int{1, 3, 256} {
				for _, bound := range []int{0, 1, 2, 4096} {
					var opts []swan.QueueOption
					if bound > 0 {
						opts = append(opts, swan.Bounded(bound))
					}
					name := fmt.Sprintf("policy=%v/workers=%d/segcap=%d/bound=%d", policy, workers, segCap, bound)
					for _, stage := range []string{"serial", "each"} {
						var got []int
						swan.NewWithPolicy(workers, policy).Run(func(f *swan.Frame) {
							in := swan.NewQueueWithCapacity[int](f, segCap, opts...)
							swan.Produce(f, in, func(c *swan.Frame, push func(int)) {
								for v := 0; v < n; v++ {
									push(v)
								}
							})
							var out *swan.Queue[int]
							if stage == "serial" {
								out = swan.NewQueueWithCapacity[int](f, segCap, opts...)
								swan.TransformSerial(f, in, out, emit)
							} else {
								out = swan.NewQueueWithCapacity[int](f, segCap)
								swan.TransformEach(f, in, out, func(v int) int { return v * v })
							}
							swan.Drain(f, out, func(v int) { got = append(got, v) })
							f.Sync()
						})
						want := wantSerial
						if stage == "each" {
							want = wantEach
						}
						if !slices.Equal(got, want) {
							t.Errorf("%s/%s: %d values, differs from the serial loop's %d", name, stage, len(got), len(want))
						}
					}
				}
			}
		}
	}
}

// TestTransformSerialEagerPublication pins that the helpers batch only
// their pops: TransformSerial's first bulk pop takes all 64 pre-loaded
// elements, and the stage function's call on element i+1 blocks until the
// Drain side has seen element i's output. A helper that held pushes back
// until its batch was done would hang on the second element.
func TestTransformSerialEagerPublication(t *testing.T) {
	const n = 64
	for _, policy := range []swan.SpawnPolicy{swan.PolicySteal, swan.PolicyGoroutine} {
		for _, workers := range []int{2, 4} { // the stage function waits without a frame to Block on
			t.Run(fmt.Sprintf("policy=%v/workers=%d", policy, workers), func(t *testing.T) {
				seen := make([]chan struct{}, n) // closed when Drain has element i's output
				vals := make([]int, n)
				for i := range vals {
					seen[i], vals[i] = make(chan struct{}), i
				}
				var inHand, drained atomic.Int64
				inHand.Store(-1)
				rt := swan.NewWithPolicy(workers, policy)
				done := make(chan struct{})
				go func() {
					defer close(done)
					rt.Run(func(f *swan.Frame) {
						in := swan.NewQueue[int](f, swan.Named("eager.in"))
						out := swan.NewQueue[int](f, swan.Named("eager.out"))
						pu := in.BindPush(f)
						pu.PushSlice(vals)
						swan.TransformSerial(f, in, out, func(v int, push func(int)) {
							inHand.Store(int64(v))
							if v > 0 {
								<-seen[v-1]
							}
							push(v)
						})
						swan.Drain(f, out, func(v int) {
							if v != int(drained.Load()) {
								t.Errorf("drained[%d] = %d (order broken)", drained.Load(), v)
							}
							close(seen[v])
							drained.Add(1)
						})
						f.Sync()
					})
				}()
				select {
				case <-done:
				case <-time.After(10 * time.Second):
					t.Fatalf("pipeline hung with %d of %d outputs drained and the stage function on element %d: the helper is holding back pushed values%s",
						drained.Load(), n, inHand.Load(), fanOutHolds(rt))
				}
				if drained.Load() != n {
					t.Fatalf("%d outputs, want %d", drained.Load(), n)
				}
			})
		}
	}
}

// TestHelperPipelineSteadyStateAllocs runs the benchmark's elem_stream
// shape — Produce → TransformSerial → Drain over two bounded, metered
// hops — at two stream lengths on one warmed runtime and wants the same
// allocations from both: the helpers' pop buffers are per task, not per
// batch, and the budget and consumer parks a bounded stream goes through
// every few thousand elements allocate nothing. One worker on one P and
// no collector, as in TestShardedSteadyStateAllocs.
func TestHelperPipelineSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("exact Mallocs counts are not meaningful under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	rt := swan.New(1)
	run := func(n int) {
		sum := 0
		rt.Run(func(f *swan.Frame) {
			q1 := swan.NewQueueWithCapacity[int](f, 256, swan.Bounded(4096), swan.Named("allocs.q1"))
			q2 := swan.NewQueueWithCapacity[int](f, 256, swan.Bounded(1024), swan.Named("allocs.q2"))
			swan.Produce(f, q1, func(c *swan.Frame, push func(int)) {
				for i := 0; i < n; i++ {
					push(i)
				}
			})
			swan.TransformSerial(f, q1, q2, func(v int, push func(int)) { push(v + 1) })
			swan.Drain(f, q2, func(v int) { sum += v })
			f.Sync()
		})
		if want := n * (n + 1) / 2; sum != want {
			t.Fatalf("sum = %d, want %d", sum, want)
		}
	}
	fewest := func(n, runs int) uint64 {
		run(n)
		run(n)
		least := ^uint64(0)
		var before, after runtime.MemStats
		for i := 0; i < runs; i++ {
			runtime.ReadMemStats(&before)
			run(n)
			runtime.ReadMemStats(&after)
			least = min(least, after.Mallocs-before.Mallocs)
		}
		return least
	}
	short, long := 100_000, 1_000_000
	if testing.Short() {
		short, long = 20_000, 200_000
	}
	allocsShort, allocsLong := fewest(short, 12), fewest(long, 6)
	if allocsLong != allocsShort {
		t.Errorf("%d allocations for %d elements, %d for %d: %.5f per extra element, want 0",
			allocsLong, long, allocsShort, short, (float64(allocsLong)-float64(allocsShort))/float64(long-short))
	}
}
