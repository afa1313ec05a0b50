// Package sched implements the Swan-like task runtime that hyperqueues are
// built on (Vandierendonck et al., PACT 2011; SC 2013 §2.3, §4).
//
// The runtime exposes a Cilk-style spawn/sync task tree. Each spawned task
// runs in its own frame; dependence objects (Dep) passed at spawn time
// gate when the task may start and are notified when it completes, which
// is exactly the protocol the paper's queue access modes (pushdep, popdep,
// pushpopdep) and versioned-object access modes (indep, outdep, inoutdep)
// need.
//
// # Scheduling substrate
//
// The paper's Swan runtime uses Cilk-style work-first scheduling with
// continuation stealing. Go cannot steal continuations, so this runtime
// uses help-first spawning: a spawned child is pushed onto the bottom of
// the spawning worker's Chase–Lev deque (internal/deque) and the parent
// continues. A fixed pool of P workers pops locally in LIFO order and
// steals FIFO from randomized victims when its own deque drains, which
// preserves the locality and bounded-space properties of Cilk-style
// schedulers. Capacity is bounded by P run tokens: a worker holds a token
// only while executing task code, so every potentially-blocking runtime
// operation — Sync, a queue Empty/Pop wait, a pop-serialization wait, a
// dataflow gate — releases the token and wakes (or spawns) a compensating
// worker for the duration of the wait, mirroring the paper's choice to
// "block the worker" (§4.5) while keeping P runnable tasks whenever P are
// ready. Workers park when the system has no ready work and exit once no
// Run is active, so an idle Runtime holds no goroutines.
//
// This is the only substrate, and nothing selects it: the worker count is
// the one parameter. Every task, the root included, runs on a pool
// worker, so a live frame is always bound to one. The hyperqueue view
// algebra (internal/core) is order-robust, so a program's outcome depends
// on neither the worker count nor the steal schedule.
//
// # Program order
//
// Determinism reasoning in the paper is phrased in terms of the serial
// elision: the depth-first execution order of the spawn tree. Each frame
// has a label — the path of spawn indices from the root, stored as one
// (parent, depth, index) triple per frame — so that "task A precedes task
// B in program order" is the lexicographic comparison of labels. The
// hyperqueue uses labels to decide which producers' values a consumer may
// observe (§2.3 rule 4).
package sched

import (
	"sync"
	"sync/atomic"
)

// stealBatchMax bounds how many tasks one steal sweep may take (and sizes
// the per-worker steal buffer): a thief takes up to min(stealBatchMax,
// half the victim's visible run). Steal-half amortizes the victim scan
// over a run of tasks, but an unbounded grab would let one thief hoard a
// long run while siblings idle; 8 keeps the hoard no larger than one deque
// refill.
const stealBatchMax = 8

// Runtime is a task scheduler with a fixed number of workers. The number
// of workers plays the role of the number of cores in the paper's
// scale-free sweeps: a program written against Runtime does not change
// when the worker count changes.
type Runtime struct {
	workers int

	// Run tokens plus the worker pool (worker.go).
	tokens chan struct{}
	pool   pool

	// Cancellation state (cancel.go): the scopes of in-flight Runs, the
	// terminal runtime-wide cancellation cause set by Runtime.Cancel, and
	// the robustness counters.
	cancelMu     sync.Mutex
	rtErr        error
	scopes       map[*CancelScope]struct{}
	canceledRuns atomic.Uint64
	taskPanics   atomic.Uint64

	// sharedMu/shared back Shared: runtime-scoped singletons keyed by
	// client-chosen keys (the hyperqueue's segment-pool provider lives
	// here). Touched only on the Shared slow path.
	sharedMu sync.Mutex
	shared   map[any]any
}

// Shared returns the runtime-scoped value stored under key, calling
// create to build it the first time the key is seen. It is how client
// packages attach runtime-wide state — caches shared by every task and
// every queue of this runtime — without the scheduler knowing their
// types: the hyperqueue stores its segment-pool provider here so that
// all queues of a runtime draw from the same per-worker free lists.
// create runs under the runtime's shared-state lock and must not call
// Shared recursively.
func (rt *Runtime) Shared(key any, create func() any) any {
	rt.sharedMu.Lock()
	defer rt.sharedMu.Unlock()
	if v, ok := rt.shared[key]; ok {
		return v
	}
	if rt.shared == nil {
		rt.shared = make(map[any]any)
	}
	v := create()
	rt.shared[key] = v
	return v
}

// New returns a runtime with the given number of workers (minimum 1).
func New(workers int) *Runtime {
	if workers < 1 {
		workers = 1
	}
	rt := &Runtime{workers: workers}
	rt.tokens = make(chan struct{}, workers)
	for i := 0; i < workers; i++ {
		rt.tokens <- struct{}{}
	}
	rt.pool.init(rt)
	return rt
}

// Workers reports the number of workers.
func (rt *Runtime) Workers() int { return rt.workers }

func (rt *Runtime) acquireToken() { <-rt.tokens }
func (rt *Runtime) releaseToken() { rt.tokens <- struct{}{} }

// Run executes fn as the root frame and returns when it and all of its
// descendants have completed. It is the only entry point into the
// runtime. Run may be called repeatedly (and concurrently from distinct
// goroutines, sharing the workers). A nested Run from inside a running
// task needs a spare worker to make progress: the calling task keeps its
// own capacity while it waits, so on a one-worker runtime a nested Run
// deadlocks (a compensating worker is still woken, so nested Run works
// whenever workers >= 2).
//
// A panic inside any task is captured so the rest of the task tree can
// quiesce (dependences are still released — values a producer pushed
// before panicking remain visible, and consumers are not deadlocked);
// it also cancels the run's scope, so sibling tasks stop at their next
// blocking point instead of running to completion. The first such panic
// is re-raised by Run after the tree quiesces.
//
// Run returns nil on clean completion, and the cancellation cause when
// the run's scope was canceled — by Runtime.Cancel, by the run's own
// Frame.CancelScope, or by a queue poisoned with Fail (whose error
// becomes the cause). A canceled run still quiesces fully before Run
// returns: every task's completion protocol runs, so views fold and
// pool accounting balances.
func (rt *Runtime) Run(fn func(*Frame)) error {
	root := newFrame()
	root.rt = rt
	scope := rt.beginRun()
	root.scope = scope
	root.body = fn
	root.done = make(chan struct{})
	rt.pool.runBegin()
	rt.pool.inject(root)
	// Wait as a blocked context: if the caller is itself a task (a nested
	// Run), compensation keeps the pool making progress; for a plain
	// external caller the dip in navail is harmless.
	rt.pool.blockBegin()
	<-root.done
	rt.pool.blockEnd()
	rt.pool.runEnd()
	return rt.endRun(scope)
}

// Frame is one node of the spawn tree: the runtime context of a single
// task, and at the same time the one record the runtime keeps for that
// task — what it runs (body, spawn-time deps, completion signal), where
// it sits in program order, its child accounting, and the per-task state
// dependence implementations hang off it (attachments, sync hooks). A
// spawn takes one such record and nothing else; the record is recycled
// through the executing worker's free list when the task returns
// (worker.go).
//
// That makes the lifetime rule strict: a *Frame is valid from the spawn
// that created it until its task has returned — body, implicit sync and
// dep completions — and must not be used or retained past that point.
// Code running on behalf of the task (its body, its deps' Prepare, Wait
// and Complete, its sync hooks) and anything ordered before its
// completion under a dep's own lock may hold it; nothing else may (code
// that needs a task's place in program order later keeps its Label).
// Using a frame whose task has returned panics ("frame used after its
// task returned") for as long as the record has not been handed to a new
// task.
//
// A Frame's methods (Spawn, Call, Sync, Block, attachments) must be
// called only from the task goroutine that owns the frame; Dep
// implementations may additionally read a live frame's program-order
// position (Before, IsAncestorOf, Parent) through their own
// synchronization (the hyperqueue does so under its registry mutex).
type Frame struct {
	rt     *Runtime
	parent *Frame

	// depth and index place the frame in program order without a
	// per-frame label: depth is the distance from the root and index the
	// frame's spawn index within its parent. The path of indices from the
	// root is the frame's label; Before and IsAncestorOf recover it by
	// walking parents, which are alive for as long as the frame is.
	// Immutable from spawn to return. nspawn allocates the children's
	// indices.
	depth  int32
	index  int32
	nspawn int32

	// gen counts the record's lifecycle transitions: even while a task
	// owns the record, odd from the moment that task has returned until
	// the record is handed to the next spawn.
	gen uint32

	// scope is the frame's cancellation domain, inherited from the parent
	// at spawn; Run sets the root's, ScopedCall swaps in a sub-scope.
	// Written only before the frame's task can observe it (at spawn or at
	// the top of the ScopedCall wrapper body), read by park sites.
	scope *CancelScope

	// worker is the worker currently executing this frame's task, set for
	// the duration of the task. inBlock marks that the frame holds no
	// execution capacity: it is inside a Block region (its token is
	// released). Both are touched only by the frame's own goroutine.
	worker  *worker
	inBlock bool

	// waker and the park links register the frame with its scope while it
	// is inside Park (cancel.go); all nil otherwise. Guarded by scope.mu.
	waker              Waker
	parkNext, parkPrev *Frame

	// mu guards live; cond (whose L is &mu) signals live reaching zero.
	// Neither is ever reset: a completing child may still be inside
	// mu.Unlock when the parent's record is recycled, which is harmless
	// only because the mutex stays the same mutex.
	mu   sync.Mutex
	cond sync.Cond
	live int // outstanding children

	// The task: exactly one of body and bodyN (the SpawnN form, called
	// with arg) is set; done, when non-nil, is closed once the dep
	// completions have run (Call and Run wait on it). Up to two deps live
	// inline in dep2; a longer list spills to depv. The caller's variadic
	// slice is copied, never stored, so it does not escape.
	body  func(*Frame)
	bodyN func(*Frame, int)
	arg   int
	done  chan struct{}
	ndeps int
	dep2  [2]Dep
	depv  []Dep

	// Attachments and sync hooks each keep their first entry inline —
	// for hyperqueue programs, by far the most common case: the one queue
	// the task works on — and spill to a map / slice beyond that. They
	// are written by the spawning frame's goroutine before the task is
	// published, or by the task itself, and read only by the task, so
	// they need no lock. Invariant: attachKey is never also a key of
	// attach.
	attachKey, attachVal any
	attach               map[any]any
	hook                 SyncHook
	hooks                []SyncHook

	nextFree *Frame // link in a worker's free list
}

// newFrame allocates a fresh record. Everything but the condition
// variable's lock binding starts at zero.
func newFrame() *Frame {
	f := &Frame{}
	f.cond.L = &f.mu
	return f
}

// newChild takes the record for f's next child — from the free list of
// the worker running f when it has one, else from the heap — and places
// it in program order. reused is 1 for a recycled record, 0 for a fresh
// one (the spawn counters sum it over a wave).
func (f *Frame) newChild() (c *Frame, reused int) {
	if w := f.worker; w != nil && w.free != nil {
		c = w.free
		w.free, c.nextFree = c.nextFree, nil
		w.nfree--
		c.gen++ // even: owned by a task again
		reused = 1
	} else {
		c = newFrame()
	}
	c.rt, c.parent, c.scope = f.rt, f, f.scope
	c.depth, c.index = f.depth+1, f.nspawn
	f.nspawn++
	return c, reused
}

// setDeps copies the spawn-time deps into the record, refusing two deps
// on one object (see ObjectDep).
func (c *Frame) setDeps(deps []Dep) {
	for i := 1; i < len(deps); i++ {
		od, ok := deps[i].(ObjectDep)
		if !ok {
			continue
		}
		for _, e := range deps[:i] {
			if oe, ok := e.(ObjectDep); ok && oe.Object() == od.Object() {
				panic("sched: task spawned with two dependences on one object; combine them into one")
			}
		}
	}
	c.ndeps = len(deps)
	if len(deps) <= len(c.dep2) {
		copy(c.dep2[:], deps)
		return
	}
	c.depv = append(c.depv[:0], deps...)
}

// deps returns the task's spawn-time deps, in declaration order.
func (c *Frame) deps() []Dep {
	if c.ndeps <= len(c.dep2) {
		return c.dep2[:c.ndeps]
	}
	return c.depv
}

// checkLive panics when f's task has already returned: the record is
// retired (and possibly sitting in a free list), so the caller holds a
// stale frame.
func (f *Frame) checkLive() {
	if f.gen&1 != 0 {
		panic("sched: frame used after its task returned")
	}
}

// Label returns a copy of f's label: the path of spawn indices from the
// root (empty for the root itself). Labels order like the frames they
// name — lexicographic order is Before, proper prefix is IsAncestorOf —
// and, unlike a *Frame, may be kept after the task has returned; the
// hypermap's advisory claims index records them.
func (f *Frame) Label() []int32 {
	f.checkLive()
	l := make([]int32, f.depth)
	for g := f; g.parent != nil; g = g.parent {
		l[g.depth-1] = g.index
	}
	return l
}

// Runtime returns the runtime this frame executes on.
func (f *Frame) Runtime() *Runtime { return f.rt }

// Parent returns the parent frame, or nil for the root.
func (f *Frame) Parent() *Frame { return f.parent }

// Before reports whether f precedes g in serial program order (the serial
// elision): the lexicographic order of the frames' labels, so an ancestor
// precedes its descendants. Visibility logic combines it with
// IsAncestorOf. Both frames must be live.
func (f *Frame) Before(g *Frame) bool {
	a, b := f, g
	for a.depth > b.depth {
		a = a.parent
	}
	for b.depth > a.depth {
		b = b.parent
	}
	if a == b {
		// Same frame, or one is an ancestor of the other.
		return f.depth < g.depth
	}
	for a.parent != b.parent {
		a, b = a.parent, b.parent
	}
	return a.index < b.index
}

// IsAncestorOf reports whether f is a proper ancestor of g in the spawn
// tree. Both frames must be live.
func (f *Frame) IsAncestorOf(g *Frame) bool {
	if f.depth >= g.depth {
		return false
	}
	for g.depth > f.depth {
		g = g.parent
	}
	return f == g
}

// Block runs wait while temporarily giving up the calling task's
// execution capacity, so that a blocked task never starves runnable
// ones: it releases the task's run token and ensures a compensating
// worker can drain the deques. It must only be called from inside a
// running task, on that task's own frame.
// Block is panic-safe: the capacity bookkeeping is restored by defers, so
// a wait that unwinds (a park site raising CancelUnwind/AbortUnwind after
// observing cancellation or a poisoned queue) leaves the token and
// compensation accounting balanced.
func (f *Frame) Block(wait func()) {
	f.checkLive()
	rt := f.rt
	if f.inBlock {
		// Nothing to give up: a re-entrant block (a queue wait inside a
		// dep gate).
		wait()
		return
	}
	f.inBlock = true
	rt.releaseToken()
	rt.pool.blockBegin()
	defer func() {
		rt.pool.blockEnd()
		rt.acquireToken()
		f.inBlock = false
	}()
	wait()
}

// Dep is a dependence declared at spawn time. The runtime drives each dep
// through three phases:
//
//   - Prepare is called synchronously in the parent's goroutine, in
//     program order, before the child may run. This is where access modes
//     register themselves (issue tickets, hand over views, join FIFO
//     queues).
//   - Wait is called in the child's context before the child's body runs;
//     it blocks until the dependence allows the child to start. Blocking
//     here does not consume execution capacity: the runtime wraps gated
//     Waits in a Block region.
//   - Complete is called in the child's context after the child's body
//     and implicit sync have finished, and before the parent's Sync can
//     observe the child as done.
//
// The runtime stores the Dep value in the task record, so a dep whose
// dynamic type is pointer-shaped (a pointer, or a struct of one pointer)
// costs no allocation per spawn; queues and versioned objects hand out
// pointers to dep values they hold.
type Dep interface {
	Prepare(parent, child *Frame)
	Wait(child *Frame)
	Complete(parent, child *Frame)
}

// ReadyDep is an optional extension of Dep: a non-blocking probe that
// reports whether Wait would return without blocking. Once a dep reports
// ready it must stay ready (the runtime may run Wait outside a Block
// region after a true probe). Deps that do not implement ReadyDep are
// conservatively treated as gated.
type ReadyDep interface {
	Dep
	Ready(child *Frame) bool
}

// ObjectDep is an optional extension of Dep that names the object the
// dependence is on. A task takes at most one dependence per object (the
// access modes of one object combine into one dep, e.g. the hyperqueue's
// pushpopdep): a spawn naming an object twice panics before any Prepare
// has run, so the error leaves nothing half-registered.
type ObjectDep interface {
	Dep
	Object() any
}

// Spawn creates a child task executing fn, gated by deps. It corresponds
// to the paper's "spawn f(args...)": the call may proceed in parallel
// with the continuation of the caller. An implicit Sync runs when fn
// returns, as in Cilk.
func (f *Frame) Spawn(fn func(*Frame), deps ...Dep) {
	f.spawn(fn, nil, deps)
}

// spawn takes a record for the child, runs the deps' Prepare and
// publishes the task. A panicking Prepare is a programming error (e.g.
// the privilege subset rule of §2.3): the child is registered with the
// parent only once every Prepare has returned, so the panic leaves Sync
// nothing to wait for and the error is recoverable; the record is left
// to the garbage collector.
func (f *Frame) spawn(fn func(*Frame), done chan struct{}, deps []Dep) {
	f.checkLive()
	c, reused := f.newChild()
	c.body, c.done = fn, done
	c.setDeps(deps)
	for _, d := range c.deps() {
		d.Prepare(f, c)
	}
	wave := [1]*Frame{c}
	f.publishBatch(wave[:], reused)
}

// addLive registers n published children with f.
func (f *Frame) addLive(n int) {
	f.mu.Lock()
	f.live += n
	f.mu.Unlock()
}

// BatchChild describes one child of a SpawnBatch: its body and its
// spawn-time dependences.
type BatchChild struct {
	Body func(*Frame)
	Deps []Dep
}

// SpawnBatch spawns every child in children as if by consecutive Spawn
// calls — dep Prepare runs synchronously in the parent, in program order,
// so the serial elision is identical — but publishes the whole wave with
// one deque tail store (deque.PushBatch) and one worker wake sweep
// (ensureWorkers) instead of one of each per child. Loop-split pipeline
// stages that fan out k tasks per popped batch use it to take the
// scheduler off their critical path.
func (f *Frame) SpawnBatch(children []BatchChild) {
	f.spawnBatch(len(children), children, nil, nil)
}

// SpawnN spawns n children running fn(c, i) for i in [0, n), all gated by
// the same deps, with batched publication as in SpawnBatch. It is the
// §5.4 loop-split fan-out shape: "for each of the k items popped this
// round, spawn a worker task with the same queue privileges".
func (f *Frame) SpawnN(n int, fn func(*Frame, int), deps ...Dep) {
	f.spawnBatch(n, nil, fn, deps)
}

// spawnBatch prepares n children — child i is children[i] when children
// is given, else fn(c, i) gated by deps — and publishes them as one wave.
// The wave is collected in the spawning worker's scratch buffer (nothing
// between here and the publication can spawn on this worker), so a batch
// allocates nothing beyond its records.
func (f *Frame) spawnBatch(n int, children []BatchChild, fn func(*Frame, int), deps []Dep) {
	f.checkLive()
	if n <= 0 {
		return
	}
	w := f.worker
	wave := w.wave[:0]
	reused := 0
	// Deferred so that it also runs when a Prepare panics (a programming
	// error such as the privilege subset rule): the failing child and the
	// unprepared rest were never registered, but the children already
	// fully prepared hold views and tickets and must still run — they are
	// published before the panic continues.
	defer func() {
		f.publishBatch(wave, reused)
		clear(wave)
		w.wave = wave[:0]
	}()
	for i := 0; i < n; i++ {
		c, r := f.newChild()
		if children != nil {
			c.body, deps = children[i].Body, children[i].Deps
		} else {
			c.bodyN, c.arg = fn, i
		}
		c.setDeps(deps)
		for _, d := range c.deps() {
			d.Prepare(f, c)
		}
		wave = append(wave, c)
		reused += r
	}
}

// publishBatch makes a wave of fully prepared tasks runnable: one
// PushBatch on the spawning worker's deque and one wake sweep sized to
// the batch. Once pushed, a task may run, return and have its record
// recycled at any moment: nothing here touches it again.
func (f *Frame) publishBatch(wave []*Frame, reused int) {
	n := len(wave)
	if n == 0 {
		return
	}
	f.addLive(n)
	f.worker.dq.PushBatch(wave)
	rt := f.rt
	st := &rt.pool.stats
	st.Spawns.Add(uint64(n))
	if reused > 0 {
		st.TaskReuses.Add(uint64(reused))
	}
	if n > reused {
		st.TaskAllocs.Add(uint64(n - reused))
	}
	rt.pool.ensureWorkers(n)
}

// runBody calls the task's body in whichever form it was spawned.
func (c *Frame) runBody() {
	if c.bodyN != nil {
		c.bodyN(c, c.arg)
	} else {
		c.body(c)
	}
}

// finish runs the completion protocol: dep Complete calls in the child's
// context, the done signal, and the parent's live-child accounting. The
// frame is marked as returned before anyone is told, so whoever learns of
// the completion also sees the mark. Once the parent's lock is released
// the parent may return and its record be recycled, so nothing touches it
// after that.
func (c *Frame) finish() {
	p := c.parent
	for _, d := range c.deps() {
		d.Complete(p, c)
	}
	c.gen++ // odd: any further use of the frame is a bug, and panics
	if c.done != nil {
		close(c.done)
	}
	if p != nil {
		p.mu.Lock()
		p.live--
		p.cond.Broadcast()
		p.mu.Unlock()
	}
}

// helpLocal is the help-first counterpart of Cilk's work-first sync: a
// frame about to wait runs tasks popped LIFO from its own worker's deque
// until quit reports the wait is satisfied, the deque drains, or the pop
// surfaces a task that is not a descendant of f.
//
// The descendant guard preserves strictness: a descendant of f can only
// wait on work that is completed, stealable, or released through its own
// Block compensation — never on the buried frames above it (anything a
// task waits for is strictly earlier in program order, and f's ancestors
// are not). Without the guard, batch stealing breaks this: StealBatch
// lands sibling tasks from a victim's run in our deque, and inline-running
// a program-*later* sibling (say a consumer) beneath a program-earlier one
// (its producer, buried above us mid-Sync) deadlocks — the consumer waits
// forever for values only the buried continuation can push. A refused task
// is pushed back (same deque position) and stays stealable; we fall
// through to the Block path instead.
func (f *Frame) helpLocal(quit func() bool) {
	if f.inBlock {
		return
	}
	w := f.worker
	for !quit() {
		c := w.dq.PopPtr()
		if c == nil {
			return
		}
		if !f.IsAncestorOf(c) {
			w.dq.PushPtr(c)
			return
		}
		f.rt.pool.runTask(w, c)
	}
}

// Call runs fn as a child frame and waits for it to complete, including
// its dependence completions. The paper treats calls like spawns for
// hyperqueue purposes (§4.2, "Call and return from call with push
// privileges"); a call simply foregoes concurrency with the continuation.
// The child is usually still at the bottom of the caller's deque and runs
// inline via helpLocal.
func (f *Frame) Call(fn func(*Frame), deps ...Dep) {
	done := make(chan struct{})
	f.spawn(fn, done, deps)
	closed := func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	f.helpLocal(closed)
	if closed() {
		return
	}
	f.Block(func() { <-done })
}

// Sync blocks until all children spawned so far by this frame have
// completed, releasing the frame's execution capacity while waiting.
// After the children are done it runs the frame's sync hooks (the
// hyperqueue uses a hook to fold its children view into the user view,
// §4.2 "Sync").
func (f *Frame) Sync() {
	f.checkLive()
	if !f.quiet() {
		// Help first: run our own pending children (and their descendants)
		// off the local deque instead of parking immediately.
		f.helpLocal(f.quiet)
	}
	if !f.quiet() {
		f.Block(func() {
			f.mu.Lock()
			for f.live != 0 {
				f.cond.Wait()
			}
			f.mu.Unlock()
		})
	}
	if f.hook != nil {
		f.hook.OnSync()
		for i := 0; i < len(f.hooks); i++ {
			f.hooks[i].OnSync()
		}
	}
}

// quiet reports whether every child spawned so far has completed.
func (f *Frame) quiet() bool {
	f.mu.Lock()
	q := f.live == 0
	f.mu.Unlock()
	return q
}

// SyncHook is the callback a dependence implementation registers with
// AddSyncHook. It is an interface rather than a func so that the per-task
// state an implementation already keeps (the hyperqueue's view set) can
// be the hook itself, with no closure allocated per spawn.
type SyncHook interface {
	OnSync()
}

// AddSyncHook registers h to run (in the frame's goroutine) after every
// Sync of this frame, including the implicit sync at frame completion.
// Like SetAttachment it is called by the frame's own task, or by the
// spawning frame from a dep's Prepare.
func (f *Frame) AddSyncHook(h SyncHook) {
	f.checkLive()
	if f.hook == nil {
		f.hook = h
	} else {
		f.hooks = append(f.hooks, h)
	}
}

// Parallel reports whether the program is executing with more than one
// worker — the runtime check of §5.3 ("Selectively Enabling
// Pipelining", Cilk's SYNCHED): programs may select a sequential
// implementation when parallel execution is impossible, e.g. to bound
// queue growth. As the paper warns, use with care: branching on it can
// violate determinism if the two versions are not observably equivalent.
func (f *Frame) Parallel() bool { return f.rt.workers > 1 }

// WorkerID returns a small non-negative integer identifying the worker
// currently executing this frame's task, or 0 once the task has returned.
// IDs are stable for the duration of one task body, dense enough to index
// small sharded caches (the hyperqueue's segment pool shards by it), and
// never negative. It must only be called from the frame's own goroutine.
func (f *Frame) WorkerID() int {
	if f.worker != nil {
		return f.worker.id
	}
	return 0
}

// Attachment returns the attachment stored under key, or nil.
// Attachments let dependence implementations hang per-frame state (such
// as hyperqueue views) off a frame. The first key stored on a frame is
// served from an inline slot — one interface compare, no map hash, which
// matters because dependence implementations resolve their per-frame
// state through Attachment on per-element hot paths; further keys fall
// back to a map.
func (f *Frame) Attachment(key any) any {
	f.checkLive()
	if f.attachKey == key {
		return f.attachVal
	}
	return f.attach[key]
}

// SetAttachment stores v under key. It is called by the frame's own
// task, or by the spawning frame from a dep's Prepare (before the task is
// published).
func (f *Frame) SetAttachment(key any, v any) {
	f.checkLive()
	if f.attachKey == nil || f.attachKey == key {
		f.attachKey, f.attachVal = key, v
		return
	}
	if f.attach == nil {
		f.attach = make(map[any]any)
	}
	f.attach[key] = v
}
