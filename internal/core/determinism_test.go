package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/rng"
	"repro/internal/sched"
)

// ---------------------------------------------------------------------------
// Property testing: random spawn trees against the serial elision.
//
// The central theorem of the paper is that a program using hyperqueues is
// serializable: every consumer observes exactly the values, in exactly the
// order, that the serial elision (depth-first execution) would give it.
// These tests generate random programs — trees of tasks that push, pop,
// drain and spawn with random access modes respecting the privilege subset
// rule — compute the serial-elision outcome with a trivial interpreter,
// then execute the program on the real runtime at several worker counts
// and require identical outcomes.
// ---------------------------------------------------------------------------

const (
	actPush = iota
	actSpawn
	actPopN
	actDrain
)

type action struct {
	kind  int
	val   int
	n     int
	child *taskDef
}

type taskDef struct {
	id   int
	mode AccessMode
	acts []action
}

// genProgram builds a random program and simultaneously plays the serial
// elision to know how many values are queued at every point (so generated
// PopN actions are always legal).
type progGen struct {
	r       *rng.RNG
	nextID  int
	nextVal int
	qlen    int
	oracle  map[int][]int
	serialQ []int
}

func (g *progGen) gen(mode AccessMode, depth int) *taskDef {
	td := &taskDef{id: g.nextID, mode: mode}
	g.nextID++
	nacts := 2 + g.r.Intn(5)
	for i := 0; i < nacts; i++ {
		switch g.r.Intn(4) {
		case 0: // push a few values
			if mode&ModePush == 0 {
				continue
			}
			k := 1 + g.r.Intn(4)
			for j := 0; j < k; j++ {
				td.acts = append(td.acts, action{kind: actPush, val: g.nextVal})
				g.serialQ = append(g.serialQ, g.nextVal)
				g.nextVal++
				g.qlen++
			}
		case 1: // spawn a child with a subset of privileges
			if depth == 0 {
				continue
			}
			var cm AccessMode
			switch {
			case mode == ModePushPop:
				cm = []AccessMode{ModePush, ModePop, ModePushPop}[g.r.Intn(3)]
			default:
				cm = mode
			}
			child := g.gen(cm, depth-1)
			td.acts = append(td.acts, action{kind: actSpawn, child: child})
		case 2: // pop a legal number of values
			if mode&ModePop == 0 || g.qlen == 0 {
				continue
			}
			n := 1 + g.r.Intn(g.qlen)
			td.acts = append(td.acts, action{kind: actPopN, n: n})
			for j := 0; j < n; j++ {
				g.oracle[td.id] = append(g.oracle[td.id], g.serialQ[0])
				g.serialQ = g.serialQ[1:]
			}
			g.qlen -= n
		case 3: // drain
			if mode&ModePop == 0 {
				continue
			}
			td.acts = append(td.acts, action{kind: actDrain})
			for len(g.serialQ) > 0 {
				g.oracle[td.id] = append(g.oracle[td.id], g.serialQ[0])
				g.serialQ = g.serialQ[1:]
			}
			g.qlen = 0
		}
	}
	return td
}

func runProgram(workers, segCap int, root *taskDef) map[int][]int {
	consumed := make(map[int][]int)
	var mu sync.Mutex
	record := func(id, v int) {
		mu.Lock()
		consumed[id] = append(consumed[id], v)
		mu.Unlock()
	}
	sched.New(workers).Run(func(f *sched.Frame) {
		q := NewWithCapacity[int](f, segCap)
		var exec func(f *sched.Frame, td *taskDef)
		exec = func(f *sched.Frame, td *taskDef) {
			for _, a := range td.acts {
				switch a.kind {
				case actPush:
					q.Push(f, a.val)
				case actSpawn:
					child := a.child
					var dep sched.Dep
					switch child.mode {
					case ModePush:
						dep = Push(q)
					case ModePop:
						dep = Pop(q)
					default:
						dep = PushPop(q)
					}
					f.Spawn(func(c *sched.Frame) { exec(c, child) }, dep)
				case actPopN:
					for j := 0; j < a.n; j++ {
						record(td.id, q.Pop(f))
					}
				case actDrain:
					for !q.Empty(f) {
						record(td.id, q.Pop(f))
					}
				}
			}
		}
		exec(f, root)
	})
	return consumed
}

func TestPropertySerializability(t *testing.T) {
	programs := 200
	if testing.Short() {
		programs = 60
	}
	for seed := 0; seed < programs; seed++ {
		g := &progGen{r: rng.New(uint64(seed) + 1), oracle: make(map[int][]int)}
		root := g.gen(ModePushPop, 4)
		for _, workers := range []int{1, 2, 8} {
			for _, segCap := range []int{1, 3, 256} {
				got := runProgram(workers, segCap, root)
				if !equalConsumption(got, g.oracle) {
					t.Fatalf("seed %d workers %d segCap %d:\n got   %v\n oracle %v",
						seed, workers, segCap, got, g.oracle)
				}
			}
		}
	}
}

func TestPropertyRepeatability(t *testing.T) {
	// Determinism: two executions at high parallelism agree exactly.
	last := 180
	if testing.Short() {
		last = 120
	}
	for seed := 100; seed < last; seed++ {
		g := &progGen{r: rng.New(uint64(seed)), oracle: make(map[int][]int)}
		root := g.gen(ModePushPop, 4)
		a := runProgram(8, 7, root)
		b := runProgram(8, 7, root)
		if !equalConsumption(a, b) {
			t.Fatalf("seed %d: two runs disagree:\n a %v\n b %v", seed, a, b)
		}
	}
}

func equalConsumption(a, b map[int][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, va := range a {
		if !reflect.DeepEqual(va, b[k]) {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// The §2.3 scheduling example: spawn A(push) B(push) C(pop) D(pushpop)
// E(push) F(pop). The rules require: C may run while A and B run; D waits
// for C; E may run before D and while C runs; F waits for D.
// ---------------------------------------------------------------------------

func TestSchedulingRulesAF(t *testing.T) {
	started := make(map[string]chan struct{})
	for _, n := range []string{"A", "B", "C", "D", "E", "F"} {
		started[n] = make(chan struct{})
	}
	var mu sync.Mutex
	finished := make(map[string]bool)
	finish := func(n string) {
		mu.Lock()
		finished[n] = true
		mu.Unlock()
	}
	wasFinished := func(n string) bool {
		mu.Lock()
		defer mu.Unlock()
		return finished[n]
	}

	run(8, func(f *sched.Frame) {
		q := New[int](f)
		f.Spawn(func(c *sched.Frame) { // A: blocks until C starts (rule 2)
			close(started["A"])
			<-started["C"]
			q.Push(c, 1)
			finish("A")
		}, Push(q))
		f.Spawn(func(c *sched.Frame) { // B: concurrent with A (rule 1)
			close(started["B"])
			<-started["A"]
			q.Push(c, 2)
			finish("B")
		}, Push(q))
		f.Spawn(func(c *sched.Frame) { // C: waits until E starts (rule 4)
			close(started["C"])
			<-started["E"]
			if q.Pop(c) != 1 || q.Pop(c) != 2 {
				t.Error("C observed wrong values")
			}
			finish("C")
		}, Pop(q))
		f.Spawn(func(c *sched.Frame) { // D: must run after C (rule 3)
			close(started["D"])
			if !wasFinished("C") {
				t.Error("D started before C completed (rule 3)")
			}
			q.Push(c, 4)
			// Serial elision: the queue is empty when D starts (C drained
			// it), D pushes 4 and pops its own value. E's 3 is pushed
			// after D in program order and must stay invisible here.
			if got := q.Pop(c); got != 4 {
				t.Errorf("D popped %d, want its own 4", got)
			}
			finish("D")
		}, PushPop(q))
		f.Spawn(func(c *sched.Frame) { // E: runs while C lives, before D
			close(started["E"])
			if wasFinished("C") {
				t.Log("E started after C finished (allowed, but weakens the rule-4 check)")
			}
			q.Push(c, 3)
			finish("E")
		}, Push(q))
		f.Spawn(func(c *sched.Frame) { // F: after D (rule 3)
			close(started["F"])
			if !wasFinished("D") {
				t.Error("F started before D completed (rule 3)")
			}
			// After D consumed its own 4, only E's 3 remains for F.
			if got := q.Pop(c); got != 3 {
				t.Errorf("F popped %d, want E's 3", got)
			}
			finish("F")
		}, Pop(q))
		f.Sync()
	})
}

// ---------------------------------------------------------------------------
// The §4.3 / Figure 4 execution: Task1(push){Task2 pushes 0–3, Task3
// pushes 4–7}, Task4(pop){Task5 pops 0,1}, Task6 pushes 8. Task5 must be
// able to pop 0 and 1 while Task3 may still be producing, and must never
// observe value 8.
// ---------------------------------------------------------------------------

func TestFigure4Scenario(t *testing.T) {
	task3go := make(chan struct{})
	task5done := make(chan struct{})
	var t5got []int
	var rest []int
	run(8, func(f *sched.Frame) {
		q := NewWithCapacity[int](f, 4)
		f.Spawn(func(c *sched.Frame) { // Task 1
			c.Spawn(func(g *sched.Frame) { // Task 2
				for v := 0; v <= 3; v++ {
					q.Push(g, v)
				}
			}, Push(q))
			c.Spawn(func(g *sched.Frame) { // Task 3: holds until Task 5 popped
				q.Push(g, 4)
				<-task3go
				for v := 5; v <= 7; v++ {
					q.Push(g, v)
				}
			}, Push(q))
			c.Sync()
		}, Push(q))
		f.Spawn(func(c *sched.Frame) { // Task 4
			c.Spawn(func(g *sched.Frame) { // Task 5
				t5got = append(t5got, q.Pop(g), q.Pop(g))
				close(task3go) // Task 3 was still alive while we popped
				close(task5done)
			}, Pop(q))
			c.Sync()
		}, Pop(q))
		f.Spawn(func(c *sched.Frame) { // Task 6
			<-task5done
			q.Push(c, 8)
		}, Push(q))
		f.Sync()
		for !q.Empty(f) {
			rest = append(rest, q.Pop(f))
		}
	})
	if len(t5got) != 2 || t5got[0] != 0 || t5got[1] != 1 {
		t.Fatalf("Task 5 popped %v, want [0 1]", t5got)
	}
	want := []int{2, 3, 4, 5, 6, 7, 8}
	if !reflect.DeepEqual(rest, want) {
		t.Fatalf("remaining values %v, want %v", rest, want)
	}
}

// TestConsumerOverlapsProducer pins rule 2 directly: the consumer obtains
// values while the producer is provably still running.
func TestConsumerOverlapsProducer(t *testing.T) {
	sawFirst := make(chan struct{})
	var overlapped bool
	run(4, func(f *sched.Frame) {
		q := New[int](f)
		f.Spawn(func(c *sched.Frame) {
			q.Push(c, 1)
			<-sawFirst // consumer popped while we are mid-task
			overlapped = true
			q.Push(c, 2)
		}, Push(q))
		f.Spawn(func(c *sched.Frame) {
			if q.Pop(c) != 1 {
				t.Error("wrong first value")
			}
			close(sawFirst)
			if q.Pop(c) != 2 {
				t.Error("wrong second value")
			}
		}, Pop(q))
		f.Sync()
	})
	if !overlapped {
		t.Fatal("producer finished before consumer started: no overlap")
	}
}

// TestDeepRecursiveProducers stresses the head-sharing climb across a
// deep spawn tree (the at-most-d-steps reduction of §4.5).
func TestDeepRecursiveProducers(t *testing.T) {
	const depth = 40
	var got []int
	run(4, func(f *sched.Frame) {
		q := NewWithCapacity[int](f, 2)
		var descend func(c *sched.Frame, d int)
		descend = func(c *sched.Frame, d int) {
			q.Push(c, depth-d) // push on the way down: 0, 1, 2, ...
			if d == 0 {
				return
			}
			c.Spawn(func(g *sched.Frame) { descend(g, d-1) }, Push(q))
			c.Sync()
			q.Push(c, depth+d) // push on the way up: deepest frame unwinds first
		}
		f.Spawn(func(c *sched.Frame) { descend(c, depth) }, Push(q))
		f.Spawn(func(c *sched.Frame) {
			for !q.Empty(c) {
				got = append(got, q.Pop(c))
			}
		}, Pop(q))
		f.Sync()
	})
	if len(got) != 2*depth+1 {
		t.Fatalf("consumed %d, want %d", len(got), 2*depth+1)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d; serial order broken (%v...)", i, v, got[:min(10, len(got))])
		}
	}
}

// TestManyValuesThroughput pushes a large volume through a small segment
// chain under full parallelism with the race detector watching.
func TestManyValuesThroughput(t *testing.T) {
	const n = 50000
	var count, sum int64
	run(8, func(f *sched.Frame) {
		q := NewWithCapacity[int](f, 64)
		var producer func(c *sched.Frame, start, end int)
		producer = func(c *sched.Frame, start, end int) {
			if end-start <= 512 {
				for i := start; i < end; i++ {
					q.Push(c, i)
				}
				return
			}
			mid := (start + end) / 2
			c.Spawn(func(g *sched.Frame) { producer(g, start, mid) }, Push(q))
			c.Spawn(func(g *sched.Frame) { producer(g, mid, end) }, Push(q))
		}
		f.Spawn(func(c *sched.Frame) { producer(c, 0, n) }, Push(q))
		f.Spawn(func(c *sched.Frame) {
			prev := -1
			for !q.Empty(c) {
				v := q.Pop(c)
				if v <= prev {
					t.Errorf("order violation: %d after %d", v, prev)
					return
				}
				prev = v
				count++
				sum += int64(v)
			}
		}, Pop(q))
		f.Sync()
	})
	if count != n {
		t.Fatalf("consumed %d, want %d", count, n)
	}
	if want := int64(n) * (n - 1) / 2; sum != want {
		t.Fatalf("sum = %d, want %d", sum, want)
	}
}

// localView returns the local view (s, s).
func localView[T any](s *segment[T]) view[T] { return view[T]{Head: s, Tail: s, Valid: true} }

// reduce implements reduce((h1,t1),(h2,t2)) = ((h1,t2), ε) (§3.3) on its
// own; the queue's structural folds go through its engine, which also
// counts effective merges.
func reduce[T any](v1, v2 *view[T]) {
	var ops qviewOps[T]
	ops.Reduce(v1, v2)
}

func TestViewStringer(t *testing.T) {
	v := emptyView[int]()
	if v.String() != "ε" {
		t.Errorf("empty view prints %q", v.String())
	}
	s := newSegment[int](4)
	lv := localView(s)
	if lv.String() != "(h,t)" {
		t.Errorf("local view prints %q", lv.String())
	}
	ho, to := split(s, 9)
	if ho.String() != "(h,NL9)" || to.String() != "(NL9,t)" {
		t.Errorf("split views print %q, %q", ho.String(), to.String())
	}
	_ = fmt.Sprintf("%v", lv)
}

func TestReduceEmptyCases(t *testing.T) {
	s1, s2 := newSegment[int](2), newSegment[int](2)
	a, b := localView(s1), localView(s2)
	var e view[int]
	reduce(&a, &e) // reduce(v, ε) = v
	if !a.Valid || a.Head != s1 {
		t.Fatal("reduce with ε rhs changed lhs")
	}
	reduce(&e, &b) // reduce(ε, v) = v
	if !e.Valid || e.Head != s2 {
		t.Fatal("reduce with ε lhs did not adopt rhs")
	}
	if b.Valid {
		t.Fatal("rhs not cleared")
	}
	var e2, e3 view[int]
	reduce(&e2, &e3) // reduce(ε, ε) = ε
	if e2.Valid || e3.Valid {
		t.Fatal("ε+ε produced non-ε")
	}
}

func TestReduceLocalConcatenates(t *testing.T) {
	s1, s2 := newSegment[int](2), newSegment[int](2)
	a, b := localView(s1), localView(s2)
	reduce(&a, &b)
	if a.Head != s1 || a.Tail != s2 {
		t.Fatal("concatenated view has wrong ends")
	}
	if s1.next.Load() != s2 {
		t.Fatal("segments not linked")
	}
}

func TestReduceMismatchedPairPanics(t *testing.T) {
	s1, s2 := newSegment[int](2), newSegment[int](2)
	ho1, _ := split(s1, 1)
	_, to2 := split(s2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched non-local pair did not panic")
		}
	}()
	reduce(&ho1, &to2) // tailNL=1 against headNL=2
}

func TestReduceInvalidComboPanics(t *testing.T) {
	s1, s2 := newSegment[int](2), newSegment[int](2)
	ho, _ := split(s1, 3) // (h, NL3)
	b := localView(s2)    // (h, t) — local head
	defer func() {
		if recover() == nil {
			t.Fatal("NL-tail against local-head did not panic")
		}
	}()
	reduce(&ho, &b)
}
