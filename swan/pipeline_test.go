package swan_test

import (
	"strconv"
	"testing"

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
