// Package qcheck generates random hyperqueue programs and checks them
// against their serial elision. It is the engine behind cmd/quickcheck
// and the internal/core regression tests: both need the exact same
// program generator so that a seed reported by one ("FAIL seed=139") can
// be replayed by the other.
//
// Two generators exist. Generate is the original single-queue generator
// (push, spawn, pop, drain); its random-stream consumption is frozen —
// a given seed must keep producing the same program across refactors, or
// historical failure reports (seed 139) stop being reproducible. Do not
// reorder or add RNG draws in it. GenerateMulti is the extended
// generator: programs over several hyperqueues whose tasks additionally
// Sync mid-body, Call children synchronously (delegating a random
// privilege subset per queue), and consume through the non-blocking
// primitives — Empty-guarded TryPop and ReadSlice/ConsumeRead runs,
// which exercise the lock-free miss fast path and the §5.2 slice
// interface at every worker count. GenerateMulti's stream
// identity is versioned rather than frozen: PR 4 extended the action
// set from 7 to 9 kinds, PR 5 from 9 to 11 (bound-handle push bursts —
// scalar Push or bulk PushSlice — and bound-handle Empty-guarded
// PopInto consumption), PR 6 appended per-queue bound draws after
// tree generation — about half the queues of each program are built
// with swan.Bounded, exercising the credit accounting on every push and
// pop path — and PR 7 extended the set from 11 to 12 kinds (reducer
// folds through swan.Reduce, checked against a serial-order RedOracle
// with an order-sensitive list-append monoid) plus a per-child
// reducer-privilege draw, changing the (seed, queues) → tree mapping. A
// failure report is therefore (generator version, seed, queues), never
// just a seed, and includes the bound assignment and reducer fold. Generated bounds are always at least the queue's total
// push count: generated programs may legally terminate with values
// still enqueued and may produce out of serial order through sibling
// producers, either of which can wedge a tight bound (see the in-order
// production discipline in OPERATIONS.md) — a generated program must
// never block on credits, only account them. The blocking paths are
// pinned by the dedicated backpressure tests instead.
//
// A program is a random task tree whose tasks push values, pop or drain
// queues, and spawn children with a random subset of their own
// privileges. While generating, the serial elision is played alongside:
// plain FIFOs record which task would consume which values if every
// spawn ran inline. Executing the program on the real runtime at any
// worker count and segment size must reproduce that oracle exactly —
// that is the paper's serializability theorem.
package qcheck

import (
	"fmt"
	"reflect"
	"strings"
	"sync"

	"repro/internal/rng"
	"repro/swan"
)

const (
	actPush = iota
	actSpawn
	actPopN
	actDrain
	actSync
	actCall
	actTryPopN    // GenerateMulti only: pop n values via Empty-guarded TryPop
	actReadSliceN // GenerateMulti only: consume n values via ReadSlice/ConsumeRead
	actBindPushN  // GenerateMulti only: push n values through a bound Pusher
	actBindPopN   // GenerateMulti only: consume n values via Popper.PopInto
	actReduceAdd  // GenerateMulti only: fold a value into the program's reducer
)

type action struct {
	kind  int
	q     int // queue index for push/pop/drain
	val   int
	n     int
	child *task
}

// task is one node of the generated spawn tree. modes[qi] is the
// privilege mask the task holds on queue qi: 1=push, 2=pop, 3=both,
// 0=none (no dependence is passed for that queue). red is the write
// privilege on the program's reducer (GenerateMulti only): the root
// holds it and children inherit it by random draw, like queue modes.
type task struct {
	id    int
	modes []uint8
	red   bool
	acts  []action
}

// Program is one generated random program together with its
// serial-elision oracle: Oracle[taskID] lists the values that task pops,
// in order, across all queues.
type Program struct {
	Seed   uint64
	Queues int
	Oracle map[int][]int
	Tasks  int
	Values int
	// Bounds[qi] is the swan.Bounded budget queue qi is constructed
	// with, 0 for unbounded. Nil for Generate programs (the frozen
	// single-queue generator predates bounds).
	Bounds []int
	// RedOracle is the serial elision of the program's reducer: the
	// values reducer-privileged tasks fold in, in serial program order.
	// The list-append monoid is order-sensitive, so a merge performed
	// out of serial order cannot cancel out. Nil for Generate programs.
	RedOracle []int
	root      *task
}

type generator struct {
	r         *rng.RNG
	nq        int
	nextID    int
	nextVal   int
	oracle    map[int][]int
	serialQ   [][]int // the serial elision's FIFO content, per queue
	pushed    []int   // values ever pushed, per queue (for safe bound draws)
	redOracle []int   // reducer folds in serial (= generation) order
}

// Generate builds the original single-queue random program for seed.
// Generation is deterministic: the same seed always yields the same
// program and oracle. The RNG consumption of this function is frozen
// (see the package comment).
func Generate(seed uint64) *Program {
	g := &generator{r: rng.New(seed), nq: 1, oracle: make(map[int][]int), serialQ: make([][]int, 1)}
	root := g.gen(3, 4)
	return &Program{Seed: seed, Queues: 1, Oracle: g.oracle, Tasks: g.nextID, Values: g.nextVal, root: root}
}

func (g *generator) gen(mode uint8, depth int) *task {
	td := &task{id: g.nextID, modes: []uint8{mode}}
	g.nextID++
	for i, n := 0, 2+g.r.Intn(5); i < n; i++ {
		switch g.r.Intn(4) {
		case 0:
			if mode&1 == 0 {
				continue
			}
			for j, k := 0, 1+g.r.Intn(4); j < k; j++ {
				td.acts = append(td.acts, action{kind: actPush, val: g.nextVal})
				g.serialQ[0] = append(g.serialQ[0], g.nextVal)
				g.nextVal++
			}
		case 1:
			if depth == 0 {
				continue
			}
			cm := mode
			if mode == 3 {
				cm = []uint8{1, 2, 3}[g.r.Intn(3)]
			}
			td.acts = append(td.acts, action{kind: actSpawn, child: g.gen(cm, depth-1)})
		case 2:
			if mode&2 == 0 || len(g.serialQ[0]) == 0 {
				continue
			}
			n := 1 + g.r.Intn(len(g.serialQ[0]))
			td.acts = append(td.acts, action{kind: actPopN, n: n})
			g.oracle[td.id] = append(g.oracle[td.id], g.serialQ[0][:n]...)
			g.serialQ[0] = g.serialQ[0][n:]
		case 3:
			if mode&2 == 0 {
				continue
			}
			td.acts = append(td.acts, action{kind: actDrain})
			if len(g.serialQ[0]) > 0 {
				g.oracle[td.id] = append(g.oracle[td.id], g.serialQ[0]...)
				g.serialQ[0] = nil
			}
		}
	}
	return td
}

// GenerateMulti builds a random program over the given number of
// hyperqueues with the extended action set: push bursts and
// pop/drain/TryPop/ReadSlice on a randomly chosen queue, mid-task Sync,
// and synchronous Call children alongside Spawn children, each delegated
// an independent random privilege subset per queue. Deterministic per
// (seed, queues); the RNG consumption is versioned independently of
// Generate's (see the package comment).
func GenerateMulti(seed uint64, queues int) *Program {
	if queues < 1 {
		queues = 1
	}
	g := &generator{r: rng.New(seed), nq: queues, oracle: make(map[int][]int), serialQ: make([][]int, queues), pushed: make([]int, queues)}
	modes := make([]uint8, queues)
	for i := range modes {
		modes[i] = 3
	}
	root := g.genMulti(modes, true, 4)
	// Bound draws come after the tree so the (seed, queues) → tree
	// mapping is stable; a bound of at least the total push count plus a
	// little jitter accounts credits on every path without ever blocking
	// (see the package comment).
	bounds := make([]int, queues)
	for qi := range bounds {
		if g.r.Intn(2) == 0 {
			bounds[qi] = max(1, g.pushed[qi]) + g.r.Intn(4)
		}
	}
	return &Program{Seed: seed, Queues: queues, Oracle: g.oracle, Tasks: g.nextID, Values: g.nextVal, Bounds: bounds, RedOracle: g.redOracle, root: root}
}

func (g *generator) genMulti(modes []uint8, red bool, depth int) *task {
	td := &task{id: g.nextID, modes: modes, red: red}
	g.nextID++
	// consume appends a bounded-count consumer action (Pop, TryPop or
	// ReadSlice — identical generation bookkeeping, identical RNG draws)
	// on a randomly chosen queue and moves the consumed prefix of the
	// serial elision to the oracle.
	consume := func(kind int) {
		qi := g.r.Intn(g.nq)
		if modes[qi]&2 == 0 || len(g.serialQ[qi]) == 0 {
			return
		}
		n := 1 + g.r.Intn(len(g.serialQ[qi]))
		td.acts = append(td.acts, action{kind: kind, q: qi, n: n})
		g.oracle[td.id] = append(g.oracle[td.id], g.serialQ[qi][:n]...)
		g.serialQ[qi] = g.serialQ[qi][n:]
	}
	for i, n := 0, 2+g.r.Intn(6); i < n; i++ {
		switch g.r.Intn(12) {
		case 0, 1: // push burst on one queue
			qi := g.r.Intn(g.nq)
			if modes[qi]&1 == 0 {
				continue
			}
			for j, k := 0, 1+g.r.Intn(4); j < k; j++ {
				td.acts = append(td.acts, action{kind: actPush, q: qi, val: g.nextVal})
				g.serialQ[qi] = append(g.serialQ[qi], g.nextVal)
				g.pushed[qi]++
				g.nextVal++
			}
		case 2, 3: // spawn or call a child with a random privilege subset
			if depth == 0 {
				continue
			}
			kind := actSpawn
			if g.r.Intn(3) == 0 {
				kind = actCall
			}
			cm := make([]uint8, g.nq)
			for qi := range cm {
				cm[qi] = modes[qi] & uint8(g.r.Intn(4))
			}
			cred := red && g.r.Intn(2) == 0
			td.acts = append(td.acts, action{kind: kind, child: g.genMulti(cm, cred, depth-1)})
		case 4: // pop a bounded number of values from one queue
			consume(actPopN)
		case 5: // drain one queue to permanent emptiness
			qi := g.r.Intn(g.nq)
			if modes[qi]&2 == 0 {
				continue
			}
			td.acts = append(td.acts, action{kind: actDrain, q: qi})
			if len(g.serialQ[qi]) > 0 {
				g.oracle[td.id] = append(g.oracle[td.id], g.serialQ[qi]...)
				g.serialQ[qi] = nil
			}
		case 6: // sync: wait for all children spawned so far
			td.acts = append(td.acts, action{kind: actSync})
		case 7: // consume a bounded number of values via TryPop
			consume(actTryPopN)
		case 8: // consume a bounded number of values via ReadSlice
			consume(actReadSliceN)
		case 9: // push burst through a bound handle (scalar or bulk)
			qi := g.r.Intn(g.nq)
			if modes[qi]&1 == 0 {
				continue
			}
			k := 1 + g.r.Intn(4)
			td.acts = append(td.acts, action{kind: actBindPushN, q: qi, val: g.nextVal, n: k})
			for j := 0; j < k; j++ {
				g.serialQ[qi] = append(g.serialQ[qi], g.nextVal)
				g.pushed[qi]++
				g.nextVal++
			}
		case 10: // consume a bounded number of values via Popper.PopInto
			consume(actBindPopN)
		case 11: // fold a fresh value into the reducer
			if !red {
				continue
			}
			td.acts = append(td.acts, action{kind: actReduceAdd, val: g.nextVal})
			g.redOracle = append(g.redOracle, g.nextVal)
			g.nextVal++
		}
	}
	return td
}

// deps builds the spawn-time dependence list for a child's per-queue
// privilege masks. Queues the child holds no privilege on get no
// dependence at all.
func deps(modes []uint8, qs []*swan.Queue[int]) []swan.Dep {
	var ds []swan.Dep
	for qi, m := range modes {
		switch m {
		case 1:
			ds = append(ds, swan.Push(qs[qi]))
		case 2:
			ds = append(ds, swan.Pop(qs[qi]))
		case 3:
			ds = append(ds, swan.PushPop(qs[qi]))
		}
	}
	return ds
}

// Outcome is everything a program execution produced: the per-task
// consumption map, the reducer's final fold, and — for the soak
// harness's pool audit — how many segments the program's queues held
// when it finished (counted at the final quiescent point, before the
// queues are abandoned to the garbage collector).
type Outcome struct {
	Consumed      map[int][]int
	Reduced       []int
	ChainSegments uint64
}

// ExecuteFull runs the program on a fresh runtime with the given worker
// count and segment capacity, returning what each
// task actually consumed and what the program's reducer folded. The
// hyperqueue's runtime self-checking assertions are enabled for the
// duration of the process (qcheck is a verifier; an assertion failure
// surfaces as a panic out of ExecuteFull).
func (p *Program) ExecuteFull(workers, segCap int) Outcome {
	var out Outcome
	swan.New(workers).Run(func(f *swan.Frame) {
		out = p.exec(f, segCap)
	})
	return out
}

// RunOn executes the program against an existing runtime, inside an
// isolated Call child of frame f — the soak harness uses it to churn one
// long-lived runtime (and its shared segment pools) through many
// programs instead of building a runtime per program. The program's
// queues are created in, and die with, the child frame; Outcome reports
// their final chain segments so the caller can keep its pool-accounting
// books.
func (p *Program) RunOn(f *swan.Frame, segCap int) Outcome {
	var out Outcome
	f.Call(func(c *swan.Frame) { out = p.exec(c, segCap) })
	return out
}

// exec is the shared program interpreter: it builds the program's queues
// and reducer on frame f, walks the task tree, syncs, and snapshots the
// outcome. f must be a root-like frame that owns nothing else on the
// queues it creates (ExecuteFull passes a fresh runtime's root, RunOn an
// isolated Call child).
func (p *Program) exec(f *swan.Frame, segCap int) Outcome {
	swan.SetQueueDebugChecks(true)
	out := Outcome{Consumed: make(map[int][]int)}
	consumed := out.Consumed
	var mu sync.Mutex
	{
		qs := make([]*swan.Queue[int], p.Queues)
		for i := range qs {
			var opts []swan.QueueOption
			if i < len(p.Bounds) && p.Bounds[i] > 0 {
				opts = append(opts, swan.Bounded(p.Bounds[i]))
			}
			qs[i] = swan.NewQueueWithCapacity[int](f, segCap, opts...)
		}
		red := swan.NewReducer(f, swan.Monoid[[]int]{
			Identity: func() []int { return nil },
			Combine:  func(into *[]int, from []int) { *into = append(*into, from...) },
		})
		var walk func(f *swan.Frame, td *task)
		walk = func(f *swan.Frame, td *task) {
			for _, a := range td.acts {
				switch a.kind {
				case actPush:
					qs[a.q].Push(f, a.val)
				case actSpawn, actCall:
					child := a.child
					body := func(c *swan.Frame) { walk(c, child) }
					ds := deps(child.modes, qs)
					if child.red {
						ds = append(ds, swan.Reduce(red))
					}
					if a.kind == actCall {
						f.Call(body, ds...)
					} else {
						f.Spawn(body, ds...)
					}
				case actPopN:
					for j := 0; j < a.n; j++ {
						v := qs[a.q].Pop(f)
						mu.Lock()
						consumed[td.id] = append(consumed[td.id], v)
						mu.Unlock()
					}
				case actDrain:
					for !qs[a.q].Empty(f) {
						v := qs[a.q].Pop(f)
						mu.Lock()
						consumed[td.id] = append(consumed[td.id], v)
						mu.Unlock()
					}
				case actTryPopN:
					// Empty gating keeps the loop bounded and deterministic:
					// a false Empty answer means a value is reachable for
					// this frame, so the very next TryPop must hit. A miss
					// after that (or a premature permanent emptiness) leaves
					// values unconsumed and surfaces as an oracle mismatch.
					for j := 0; j < a.n; j++ {
						if qs[a.q].Empty(f) {
							break
						}
						v, ok := qs[a.q].TryPop(f)
						if !ok {
							break
						}
						mu.Lock()
						consumed[td.id] = append(consumed[td.id], v)
						mu.Unlock()
					}
				case actReadSliceN:
					// Same Empty gating; ReadSlice after a false Empty must
					// return at least one value. Values are recorded before
					// ConsumeRead invalidates the aliased storage.
					for remaining := a.n; remaining > 0; {
						if qs[a.q].Empty(f) {
							break
						}
						s := qs[a.q].ReadSlice(f, remaining)
						if len(s) == 0 {
							break
						}
						mu.Lock()
						consumed[td.id] = append(consumed[td.id], s...)
						mu.Unlock()
						qs[a.q].ConsumeRead(f, len(s))
						remaining -= len(s)
					}
				case actBindPushN:
					// Bound-handle producer: odd counts go value by value
					// (scalar Push), even counts as one PushSlice — both
					// shapes deterministically exercised across seeds.
					pw := qs[a.q].BindPush(f)
					if a.n%2 == 1 {
						for j := 0; j < a.n; j++ {
							pw.Push(a.val + j)
						}
					} else {
						vals := make([]int, a.n)
						for j := range vals {
							vals[j] = a.val + j
						}
						pw.PushSlice(vals)
					}
				case actBindPopN:
					// Bound-handle consumer: Empty-guarded bulk PopInto,
					// same progress contract as the TryPop action — a false
					// Empty means the next PopInto must transfer at least
					// one value.
					pp := qs[a.q].BindPop(f)
					buf := make([]int, a.n)
					for got := 0; got < a.n; {
						if pp.Empty() {
							break
						}
						n := pp.PopInto(buf[got:])
						if n == 0 {
							break
						}
						mu.Lock()
						consumed[td.id] = append(consumed[td.id], buf[got:got+n]...)
						mu.Unlock()
						got += n
					}
				case actReduceAdd:
					red.BindReduce(f).Add([]int{a.val})
				case actSync:
					f.Sync()
				}
			}
		}
		walk(f, p.root)
		f.Sync()
		out.Reduced = red.Value(f)
		// Quiescent now (the Sync covered every spawned task): count the
		// segments the queues still hold, for the caller's pool audit.
		for _, q := range qs {
			out.ChainSegments += q.DebugChainSegments(f)
		}
	}
	return out
}

// CheckFull executes the program and compares the full Outcome against
// the oracles: every task's consumption must match the serial elision
// and the reducer's fold must list the reduced values in serial program
// order.
func (p *Program) CheckFull(workers, segCap int) (Outcome, bool) {
	out := p.ExecuteFull(workers, segCap)
	ok := Equal(out.Consumed, p.Oracle) && reflect.DeepEqual(out.Reduced, p.RedOracle)
	return out, ok
}

// OpLog renders the program's task tree as one operation per line — a
// human-readable replay artifact. A failure report that carries the
// (generator version, seed, queues) triple is already replayable; the op
// log is what the nightly soak uploads alongside it so a failing window
// can be read without re-running the generator.
func (p *Program) OpLog() string {
	var b strings.Builder
	fmt.Fprintf(&b, "program seed=%d queues=%d tasks=%d values=%d bounds=%v\n",
		p.Seed, p.Queues, p.Tasks, p.Values, p.Bounds)
	var walk func(td *task, depth int)
	walk = func(td *task, depth int) {
		indent := strings.Repeat("  ", depth)
		fmt.Fprintf(&b, "%stask %d modes=%v red=%v\n", indent, td.id, td.modes, td.red)
		for _, a := range td.acts {
			switch a.kind {
			case actPush:
				fmt.Fprintf(&b, "%s  push q%d v%d\n", indent, a.q, a.val)
			case actSpawn:
				fmt.Fprintf(&b, "%s  spawn task %d\n", indent, a.child.id)
				walk(a.child, depth+1)
			case actCall:
				fmt.Fprintf(&b, "%s  call task %d\n", indent, a.child.id)
				walk(a.child, depth+1)
			case actPopN:
				fmt.Fprintf(&b, "%s  pop q%d n=%d\n", indent, a.q, a.n)
			case actDrain:
				fmt.Fprintf(&b, "%s  drain q%d\n", indent, a.q)
			case actSync:
				fmt.Fprintf(&b, "%s  sync\n", indent)
			case actTryPopN:
				fmt.Fprintf(&b, "%s  trypop q%d n=%d\n", indent, a.q, a.n)
			case actReadSliceN:
				fmt.Fprintf(&b, "%s  readslice q%d n=%d\n", indent, a.q, a.n)
			case actBindPushN:
				fmt.Fprintf(&b, "%s  bindpush q%d v%d n=%d\n", indent, a.q, a.val, a.n)
			case actBindPopN:
				fmt.Fprintf(&b, "%s  bindpop q%d n=%d\n", indent, a.q, a.n)
			case actReduceAdd:
				fmt.Fprintf(&b, "%s  reduce v%d\n", indent, a.val)
			}
		}
	}
	walk(p.root, 0)
	return b.String()
}

// Equal reports whether two per-task consumption maps are identical.
func Equal(a, b map[int][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if !reflect.DeepEqual(v, b[k]) {
			return false
		}
	}
	return true
}
