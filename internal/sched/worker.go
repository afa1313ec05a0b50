package sched

import (
	"sync"
	"sync/atomic"

	"repro/internal/deque"
)

// Stats is a snapshot of scheduler counters. The deque/steal counters
// are PolicySteal only (the goroutine substrate reports zeros there);
// CanceledRuns and TaskPanics are runtime-level and count under both
// substrates.
type Stats struct {
	Spawns         uint64 // tasks pushed onto deques
	TaskAllocs     uint64 // of those, task records allocated fresh
	TaskReuses     uint64 // of those, task records taken from a worker's free list
	Steals         uint64 // successful steal sweeps from a victim deque
	StolenTasks    uint64 // tasks taken by those sweeps (>= Steals with batching)
	Parks          uint64 // times a worker went to sleep for lack of work
	Blocks         uint64 // Block regions entered (capacity released)
	WorkersStarted uint64 // worker goroutines ever started
	Blocked        int    // tasks currently inside a Block region (gauge)
	CanceledRuns   uint64 // Runs that returned a cancellation (or re-raised a panic)
	TaskPanics     uint64 // real task panics recorded (sentinel unwinds excluded)
}

// Stats reports a snapshot of the runtime's scheduler counters.
func (rt *Runtime) Stats() Stats {
	if rt.policy == PolicyGoroutine {
		return Stats{
			CanceledRuns: rt.canceledRuns.Load(),
			TaskPanics:   rt.taskPanics.Load(),
		}
	}
	p := &rt.pool
	p.mu.Lock()
	blocked := p.blocked
	p.mu.Unlock()
	return Stats{
		Spawns:         p.stats.Spawns.Load(),
		TaskAllocs:     p.stats.TaskAllocs.Load(),
		TaskReuses:     p.stats.TaskReuses.Load(),
		Steals:         p.stats.Steals.Load(),
		StolenTasks:    p.stats.StolenTasks.Load(),
		Parks:          p.stats.Parks.Load(),
		Blocks:         p.stats.Blocks.Load(),
		WorkersStarted: p.stats.WorkersStarted.Load(),
		Blocked:        blocked,
		CanceledRuns:   rt.canceledRuns.Load(),
		TaskPanics:     rt.taskPanics.Load(),
	}
}

type statCounters struct {
	Spawns         atomic.Uint64
	TaskAllocs     atomic.Uint64
	TaskReuses     atomic.Uint64
	Steals         atomic.Uint64
	StolenTasks    atomic.Uint64
	Parks          atomic.Uint64
	Blocks         atomic.Uint64
	WorkersStarted atomic.Uint64
}

// pool is the PolicySteal worker pool. Workers are started on demand,
// park when the system has no ready work, and exit once no Run is active,
// so an idle Runtime holds no goroutines.
//
// Capacity accounting: navail counts worker goroutines able to make
// progress on new work — alive minus parked minus blocked-in-task. The
// scheduler's liveness invariant is that whenever ready work exists and
// navail < workers, ensureWorker wakes or starts a worker; a worker about
// to park re-checks for work after decrementing navail, which (with Go's
// sequentially consistent atomics) closes the race against a producer
// that observed the worker as still available.
type pool struct {
	rt *Runtime

	mu         sync.Mutex
	cond       *sync.Cond // parked workers wait here
	alive      int        // worker goroutines started and not exited
	parked     int        // workers asleep in park
	wakeups    int        // pending wake permits (level-triggered signal)
	blocked    int        // tasks inside a Block region
	activeRuns int        // Run calls in flight; workers exit at zero
	global     []*Frame   // injection queue (root tasks, unbound spawns)
	nextID     int        // worker id allocator (ids are never reused)

	navail  atomic.Int32 // alive - parked - blocked (see above)
	victims atomic.Pointer[[]*worker]
	seed    atomic.Uint64
	stats   statCounters

	// stealCap is the per-sweep steal batch cap (steal-half up to this
	// many tasks), frozen at runtime construction from the package
	// default so a running pool never mixes modes.
	stealCap int
}

func (p *pool) init(rt *Runtime) {
	p.rt = rt
	p.cond = sync.NewCond(&p.mu)
	p.stealCap = StealBatchCap()
	v := []*worker{}
	p.victims.Store(&v)
}

func (p *pool) runBegin() {
	p.mu.Lock()
	p.activeRuns++
	p.mu.Unlock()
}

func (p *pool) runEnd() {
	p.mu.Lock()
	p.activeRuns--
	if p.activeRuns == 0 {
		p.cond.Broadcast() // parked workers re-check and exit
	}
	p.mu.Unlock()
}

func (p *pool) inject(t *Frame) {
	p.pushGlobal(t)
	p.ensureWorker()
}

func (p *pool) pushGlobal(t *Frame) {
	p.mu.Lock()
	p.global = append(p.global, t)
	p.mu.Unlock()
}

func (p *pool) popGlobal() *Frame {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.global) == 0 {
		return nil
	}
	t := p.global[0]
	p.global[0] = nil
	p.global = p.global[1:]
	return t
}

// ensureWorker makes sure that, if execution capacity is undersubscribed
// (navail < workers), a worker is woken or started to pick up work. It is
// called after every deque push, global injection, and Block entry. The
// fast path is a single atomic load.
func (p *pool) ensureWorker() { p.ensureWorkers(1) }

// ensureWorkers is the batched form: after k tasks were published at
// once (SpawnN/SpawnBatch via deque.PushBatch), one sweep wakes or starts
// up to k workers instead of paying the pool lock once per task.
func (p *pool) ensureWorkers(k int) {
	if int(p.navail.Load()) >= p.rt.workers {
		return
	}
	if k > p.rt.workers {
		k = p.rt.workers
	}
	p.mu.Lock()
	// Pending wakeups are workers already on their way back.
	for k > 0 && int(p.navail.Load())+p.wakeups < p.rt.workers {
		if p.parked > p.wakeups {
			p.wakeups++
			p.cond.Signal()
		} else {
			p.startWorkerLocked()
		}
		k--
	}
	p.mu.Unlock()
}

func (p *pool) startWorkerLocked() {
	p.nextID++
	w := &worker{p: p, id: p.nextID, dq: deque.New[Frame](64), rnd: p.seed.Add(0x9e3779b97f4a7c15) | 1}
	p.alive++
	p.navail.Add(1)
	p.stats.WorkersStarted.Add(1)
	old := *p.victims.Load()
	next := make([]*worker, len(old)+1)
	copy(next, old)
	next[len(old)] = w
	p.victims.Store(&next)
	go p.loop(w)
}

func (p *pool) exitLocked(w *worker) {
	p.alive--
	p.navail.Add(-1)
	old := *p.victims.Load()
	next := make([]*worker, 0, len(old)-1)
	for _, v := range old {
		if v != w {
			next = append(next, v)
		}
	}
	p.victims.Store(&next)
}

// blockBegin/blockEnd bracket a Block region: the blocked task's worker
// goroutine is buried under the wait, so capacity drops and a
// compensating worker is woken or started. The task's own deque stays
// registered as a steal victim throughout, so work it spawned earlier
// remains reachable.
func (p *pool) blockBegin() {
	p.mu.Lock()
	p.blocked++
	p.navail.Add(-1)
	p.mu.Unlock()
	p.stats.Blocks.Add(1)
	p.ensureWorker()
}

func (p *pool) blockEnd() {
	p.mu.Lock()
	p.blocked--
	p.navail.Add(1)
	p.mu.Unlock()
}

func (p *pool) hasWorkLocked() bool {
	if len(p.global) > 0 {
		return true
	}
	for _, v := range *p.victims.Load() {
		if v.dq.Len() > 0 {
			return true
		}
	}
	return false
}

// park puts a worker to sleep until new work may exist. It returns false
// when the worker should exit (no Run active). The navail decrement
// happens before the last-chance work re-check: a producer either
// observes the decremented navail (and wakes someone via ensureWorker) or
// pushed before our re-check (and we see the work) — either way no work
// is stranded.
func (p *pool) park(w *worker) bool {
	p.mu.Lock()
	if p.activeRuns == 0 {
		p.exitLocked(w)
		p.mu.Unlock()
		return false
	}
	p.parked++
	p.navail.Add(-1)
	if p.hasWorkLocked() {
		p.parked--
		p.navail.Add(1)
		p.mu.Unlock()
		return true
	}
	p.stats.Parks.Add(1)
	for p.wakeups == 0 {
		if p.activeRuns == 0 {
			p.parked--
			p.navail.Add(1)
			p.exitLocked(w)
			p.mu.Unlock()
			return false
		}
		p.cond.Wait()
	}
	p.wakeups--
	p.parked--
	p.navail.Add(1)
	p.mu.Unlock()
	return true
}

// taskCacheCap bounds a worker's free list of retired task records. A
// worker that executes about as many tasks as it spawns — the recursive
// spawn trees and batch-and-sync loops this runtime is built for —
// cycles a handful of records through the list. The cap has to cover a
// wave of spawns between two syncs (a flat fan-out of a few hundred tasks
// retires them all onto one list), and it bounds what a worker hoards
// when it executes what others spawn: 256 records are 80 KB.
const taskCacheCap = 256

// worker owns one Chase–Lev deque: it pushes and pops at the bottom
// (LIFO) and other workers steal from the top (FIFO), which gives thieves
// the oldest — typically largest — subtree, as in Cilk. The id is a
// small positive integer that client code (the hyperqueue's segment pool)
// uses to shard per-worker caches; see Frame.WorkerID.
type worker struct {
	p   *pool
	id  int
	dq  *deque.D[Frame]
	rnd uint64

	// free is the worker's LIFO of retired task records, linked through
	// Frame.nextFree and holding nfree <= taskCacheCap of them. runTask
	// retires a record to the list of the worker that executed the task;
	// a spawn takes from the list of the worker running the spawning
	// frame. Both happen on this worker's own goroutine — a task runs on
	// one worker from start to finish, and a worker buried under a Block
	// is replaced by a different worker, not shared — so the list needs
	// no lock and no atomics.
	free  *Frame
	nfree int

	// sbuf receives steal-half batches; entries are moved to the local
	// deque (or returned) and cleared immediately, so it retains nothing
	// between sweeps. wave is SpawnBatch's scratch for the tasks it is
	// about to publish, cleared the same way.
	sbuf [stealBatchMax]*Frame
	wave []*Frame
}

// retire resets the record of a task that has returned and keeps it for
// a later spawn on this worker, when nothing can still refer to it. It
// runs on the worker that executed the task, after the completion
// protocol: the dep completions have dropped the dependences' references
// (the hyperqueue's producer registry, its view sets), the parent has
// been notified and does not look at its children again, and a thief
// that raced for the task never dereferences a pointer it failed to
// claim. Root frames (Run still holds them) and the overflow beyond
// taskCacheCap are left to the garbage collector.
func (w *worker) retire(c *Frame) {
	if c.parent == nil || w.nfree == taskCacheCap {
		return
	}
	// Drop every reference the task held, so a cached record pins no
	// garbage and a stale user fails fast instead of reading the next
	// task's state. mu and cond are deliberately left alone.
	c.parent, c.scope = nil, nil
	c.nspawn = 0
	c.body, c.bodyN, c.done = nil, nil, nil
	clear(c.dep2[:])
	clear(c.depv)
	c.ndeps, c.depv = 0, c.depv[:0]
	c.attachKey, c.attachVal = nil, nil
	clear(c.attach)
	c.hook = nil
	clear(c.hooks)
	c.hooks = c.hooks[:0]
	c.nextFree, w.free = w.free, c
	w.nfree++
}

func (w *worker) rand() uint64 {
	x := w.rnd
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	w.rnd = x
	return x
}

// find returns the next task: local LIFO pop, then the global injection
// queue, then one randomized steal sweep over the victim deques. A sweep
// takes up to half the first non-empty victim's run (capped at the pool's
// stealCap): the first task runs now and the rest go into our own deque,
// where they stay visible to other thieves and to park's work check. The
// extras are run only from the top level of the worker loop or re-stolen
// — helpLocal's descendant guard keeps them from being buried mid-Sync.
func (w *worker) find() *Frame {
	if t := w.dq.PopPtr(); t != nil {
		return t
	}
	if t := w.p.popGlobal(); t != nil {
		return t
	}
	victims := *w.p.victims.Load()
	n := len(victims)
	if n == 0 {
		return nil
	}
	off := int(w.rand() % uint64(n))
	for i := 0; i < n; i++ {
		v := victims[(off+i)%n]
		if v == w {
			continue
		}
		if w.p.stealCap <= 1 {
			// Ablation comparison mode: classic single-task steal.
			if t := v.dq.StealPtr(); t != nil {
				w.p.stats.Steals.Add(1)
				w.p.stats.StolenTasks.Add(1)
				return t
			}
			continue
		}
		if k := v.dq.StealBatch(w.sbuf[:w.p.stealCap]); k > 0 {
			w.p.stats.Steals.Add(1)
			w.p.stats.StolenTasks.Add(uint64(k))
			t := w.sbuf[0]
			if k > 1 {
				w.dq.PushBatch(w.sbuf[1:k])
			}
			for j := 0; j < k; j++ {
				w.sbuf[j] = nil
			}
			return t
		}
	}
	return nil
}

func (p *pool) loop(w *worker) {
	for {
		t := w.find()
		if t == nil {
			if !p.park(w) {
				return
			}
			continue
		}
		p.rt.acquireToken()
		p.runTask(w, t)
		p.rt.releaseToken()
	}
}

// runTask executes one task to completion on worker w: dep gates, body,
// implicit sync, dep completions, parent notification, and finally the
// record's retirement to w's free list. The caller holds a run token; any
// blocking inside (gated deps, Sync, queue waits) releases it through
// Frame.Block.
func (p *pool) runTask(w *worker, c *Frame) {
	c.worker = w
	c.runGated()
	c.Sync()
	c.finish()
	c.worker = nil
	w.retire(c)
}

// runGated runs the task's dep gates and body under one recover. The
// recover spans the gates as well as the body: a gate parked on a queue
// of a canceled scope unwinds with CancelUnwind, and that unwind must be
// absorbed exactly like one from the body. A task whose scope is already
// canceled skips gates and body outright — the fast path of teardown —
// but the implicit sync and the completion protocol always run, so
// parents sync, views deposit, and tickets advance even while a pipeline
// is being torn down.
func (c *Frame) runGated() {
	defer c.recoverTask()
	if c.scope.Canceled() {
		return
	}
	if deps := c.deps(); len(deps) > 0 {
		ready := true
		for _, d := range deps {
			rd, ok := d.(ReadyDep)
			if !ok || !rd.Ready(c) {
				ready = false
				break
			}
		}
		if ready {
			// All gates are open (and, per the ReadyDep contract, stay
			// open): run the Wait protocol without giving up the token.
			for _, d := range deps {
				d.Wait(c)
			}
		} else {
			c.Block(func() {
				for _, d := range deps {
					d.Wait(c)
				}
			})
		}
		if c.scope.Canceled() {
			return
		}
	}
	c.runBody()
}
