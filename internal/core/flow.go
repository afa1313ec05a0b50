package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sched"
)

// Bounded queues and flow control. The paper's hyperqueues are unbounded
// by construction — a producer never waits — which is the right model for
// batch pipelines but unsafe for long-running streaming services: a
// producer that outruns its consumer grows the segment chain (and the
// heap) without limit and nothing observes it. This file adds the
// producer-side dual of the consumer's emptyWait: an optional per-queue
// element budget (Bounded) derived from the two counters the meter keeps
// anyway, plus the occupancy/high-water/block metering that makes a
// running pipeline observable (Named, QueueStat, the swan metrics
// endpoint).
//
// Budget. pushed and popped are monotone counters; the free budget of a
// bounded queue is bound − (pushed − popped) and is stored nowhere. A
// push claims budget with one CAS on pushed before it touches a segment,
// judged against poppedSeen, the producers' cached copy of popped — a
// stale copy only understates the free budget, so the bound stays exact.
// popped itself is read only when the cache says "full" or when the
// high-water mark is about to rise. Every value the consumer moves past —
// Pop, TryPop, PopInto, ConsumeRead — is one Add on popped. The two
// counters live on separate cache lines, so in steady state each side
// writes one word the other side does not write. With no budget left the
// producer spins briefly (the consumer is usually one pop away), then
// parks on a producer-side condition variable inside Frame.Park, so the
// scheduler releases the task's run token and a blocked producer can
// never starve the consumer of execution capacity. One pop wakes it and
// every later pop touches no lock (pushWaiters, as in wakeConsumer).
//
// Lock order. prodMu is a leaf lock, disjoint from the consMu/regMu
// hierarchy: it is only ever taken with no other queue lock held (the
// producer's park runs before any segment work, the consumer's release
// runs after the head advance, outside both locks). It can therefore
// never participate in a lock cycle with the view machinery.
//
// Deadlock freedom. Scheduler-level: a blocked Push routes through
// Frame.Block, which releases the run token and starts a compensating
// worker, so the consumer always has capacity to run, exactly as the
// consumer-side emptyWait guarantees the mirror case. Queue-level: budget is granted in arrival order while
// the consumer drains in serial program order, so a program whose
// producers run concurrently out of serial order can fill the bound with
// values the consumer cannot yet reach and wedge — see the in-order
// production discipline in OPERATIONS.md and the deadlock-freedom
// argument in ARCHITECTURE.md. Single-producer stages (the pipeline
// helpers, Produce, TransformSerial) are deadlock-free for any bound ≥ 1.

// creditSpins bounds the producer's yield-spin on an exhausted budget
// before it falls back to the capacity-releasing park, mirroring the
// consumer's emptySpins rationale: in steady state the next pop is
// moments away.
const creditSpins = 64

// QueueOption configures a queue at construction (New,
// NewWithCapacity).
type QueueOption func(*queueOpts)

type queueOpts struct {
	bound int
	name  string
}

// Bounded caps the queue at n buffered values. Push and PushSlice block
// — releasing the worker slot via Frame.Block — once n values are in
// flight, and resume as the consumer drains. n < 1 is treated as 1. The
// default (no option) keeps the paper's unbounded semantics. A bounded
// queue is automatically metered (see Named).
func Bounded(n int) QueueOption {
	return func(o *queueOpts) {
		if n < 1 {
			n = 1
		}
		o.bound = n
	}
}

// Named meters the queue under the given name: occupancy, high-water and
// block/wake counters become visible in the runtime's QueueStats (and
// the swan metrics endpoint). Metering costs one atomic add per element
// on each of the push and pop paths, on separate cache lines; plain
// unbounded queues pay only a nil check.
func Named(name string) QueueOption {
	return func(o *queueOpts) { o.name = name }
}

// QueueStat is a point-in-time snapshot of one metered queue's gauges
// and counters, reported by PoolProvider.QueueStats (runtime-wide) and
// Queue.Metrics (single queue). Counters are cumulative across Recycle.
// A wake is counted by the one push (or pop) that signals a sleeper, and
// a block is one sleep on the condition variable, so ConsumerWakes ≤
// ConsumerBlocks and ProducerWakes ≤ ProducerBlocks at all times.
type QueueStat struct {
	Name      string // Named value, or "queue-N" for auto-named bounded queues
	Bound     int    // element budget; 0 = unbounded (metering only)
	Occupancy int64  // values currently buffered (pushed - popped)
	// HighWater is the largest occupancy a push has observed. It is never
	// overstated — a push that would raise it first re-reads popped, so
	// pops the producer had not yet seen are subtracted — and never
	// exceeds Bound; it may miss a peak by the pops that raced the read.
	HighWater      int64
	Pushed         uint64 // values ever pushed
	Popped         uint64 // values ever popped
	ProducerBlocks uint64 // producer sleeps on an exhausted budget
	ProducerWakes  uint64 // pops that signalled a parked producer
	ConsumerBlocks uint64 // consumer sleeps waiting for data (emptyWait)
	ConsumerWakes  uint64 // pushes that signalled a parked consumer
	Sheds          uint64 // values refused by TryPush / timed-out PushTimeout
}

// cacheLine separates the words the producer side writes per element
// from the word the consumer side writes per element.
const cacheLine = 64

// flowState is the per-queue flow-control block, allocated only for
// bounded or named queues; q.flow == nil is the plain unbounded case and
// keeps the hot paths branch-predictable with zero extra atomics.
type flowState struct {
	name  string
	bound int64 // 0 = metering only, no budget

	// failedp aliases the owning queue's poison cell (cancel.go) so the
	// producer-side park predicates can observe a Fail without a
	// reference to the generic Queue type. Immutable after construction.
	failedp *atomic.Pointer[failCell]

	// Slow-path meters: written only around a park, a wake or a shed.
	prodBlocks atomic.Uint64
	prodWakes  atomic.Uint64
	consBlocks atomic.Uint64
	consWakes  atomic.Uint64
	sheds      atomic.Uint64

	// Producer park state. pushWaiters mirrors Queue.waiters: non-zero
	// means a producer is parked and has not been signalled since its last
	// re-check. A parking producer stores 1 under prodMu before it
	// re-reads popped; the consumer adds to popped before it loads
	// pushWaiters. So either the consumer sees the registration, or the
	// producer sees the pop (the argument of wakeConsumer, mirrored).
	pushWaiters  atomic.Int32
	prodMu       sync.Mutex
	prodCond     sync.Cond
	prodSleepers int // producers inside the cond.Wait loop; guarded by prodMu

	// The producers' line: pushed is the claim word, poppedSeen their
	// cached popped (never ahead of it), highWater a CAS-max.
	_          [cacheLine]byte
	pushed     atomic.Uint64
	poppedSeen atomic.Uint64
	highWater  atomic.Int64
	// The consumer's line.
	_      [cacheLine]byte
	popped atomic.Uint64
	_      [cacheLine]byte
}

func newFlowState(name string, bound int, failed *atomic.Pointer[failCell]) *flowState {
	fl := &flowState{name: name, bound: int64(bound), failedp: failed}
	fl.prodCond.L = &fl.prodMu
	return fl
}

// grant claims up to want elements of budget without blocking, meters
// them as pushed and returns how many it claimed; 0 means the queue is
// full right now. Partial grants are allowed — PushSlice moves what it
// can and comes back for the rest. An unbounded metered queue grants
// want whole. This is the only place budget is taken.
func (fl *flowState) grant(want int64) int64 {
	if fl.bound == 0 {
		fl.noteOccupancy(fl.pushed.Add(uint64(want)))
		return want
	}
	for {
		// If pushed moves between the load and the CAS the claim is
		// retried, so a poppedSeen newer than this pushed is never used.
		pushed := fl.pushed.Load()
		free := fl.bound - int64(pushed-fl.poppedSeen.Load())
		if free <= 0 {
			if free = fl.bound - int64(pushed-fl.refreshPopped()); free <= 0 {
				return 0
			}
		}
		take := min(want, free)
		if fl.pushed.CompareAndSwap(pushed, pushed+uint64(take)) {
			fl.noteOccupancy(pushed + uint64(take))
			return take
		}
	}
}

// refreshPopped re-reads the consumer's counter into the producers'
// cache. Racing producers may store an older value over a newer one; the
// cache then understates popped, which is the safe direction.
func (fl *flowState) refreshPopped() uint64 {
	p := fl.popped.Load()
	fl.poppedSeen.Store(p)
	return p
}

// noteOccupancy raises the high-water mark after a push that moved the
// counter to pushed. The cached popped gives an upper estimate of the
// occupancy; only if that would raise the mark is popped re-read, so the
// mark never counts values the consumer already took.
func (fl *flowState) noteOccupancy(pushed uint64) {
	hw := fl.highWater.Load()
	if int64(pushed-fl.poppedSeen.Load()) <= hw {
		return
	}
	occ := int64(pushed - fl.refreshPopped())
	for occ > hw && !fl.highWater.CompareAndSwap(hw, occ) {
		hw = fl.highWater.Load()
	}
}

// free is the exact budget left, from the counters themselves: the park
// predicate, which must not trust the cache.
func (fl *flowState) free() int64 {
	return fl.bound - int64(fl.pushed.Load()-fl.popped.Load())
}

// acquire blocks until the budget grants at least one element, claims up
// to want of them and returns the number claimed. On an unbounded
// metered queue it never blocks. A poisoned queue or a canceled scope
// unwinds the producer instead of leaving it parked forever.
func (fl *flowState) acquire(f *sched.Frame, want int64) int64 {
	for {
		if n := fl.grant(want); n > 0 {
			return n
		}
		if stop := fl.awaitBudget(f, time.Time{}); stop != nil {
			raiseStop(fl.failedErr(), stop)
		}
	}
}

// awaitBudget is the one producer park: it spins briefly, then sleeps
// until a pop frees budget, and returns nil — the caller re-runs grant,
// a wake is a hint, not a grant. A non-nil return is the reason to stop
// waiting: the queue's poison cause, the scope's cancellation cause, or
// ErrTimeout once deadline has passed (a zero deadline waits forever;
// the timer exists only while the producer is actually parked).
func (fl *flowState) awaitBudget(f *sched.Frame, deadline time.Time) error {
	for i := 0; i < creditSpins; i++ {
		runtime.Gosched()
		if fl.free() > 0 {
			return nil
		}
	}
	sc := f.CancelScope()
	for parked := false; ; parked = true {
		if err := fl.failedErr(); err != nil {
			return err
		}
		if sc.Canceled() {
			return sc.Err()
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			return ErrTimeout
		}
		if parked {
			return nil
		}
		f.Park(fl, func() {
			dl := armDeadline(&fl.prodCond, deadline)
			defer dl.stop()
			fl.prodMu.Lock()
			fl.prodSleepers++
			for {
				prev := fl.pushWaiters.Swap(1) // register, then re-check
				if fl.free() > 0 || dl.fired() || fl.failedErr() != nil || sc.Canceled() {
					// Leaving: keep a registration only if it is another
					// sleeper's, still unanswered.
					if fl.prodSleepers--; fl.prodSleepers == 0 {
						prev = 0
					}
					fl.pushWaiters.Store(prev)
					break
				}
				fl.prodBlocks.Add(1)
				fl.prodCond.Wait()
			}
			fl.prodMu.Unlock()
		})
	}
}

// release records n values the consumer moved past and wakes a parked
// producer. The steady-state cost is one atomic add and one atomic load;
// only the first pop after a park takes prodMu.
func (fl *flowState) release(n int64) {
	fl.popped.Add(uint64(n))
	if fl.pushWaiters.Load() == 0 {
		return
	}
	fl.prodMu.Lock()
	if fl.pushWaiters.Load() != 0 {
		fl.pushWaiters.Store(0)
		fl.prodWakes.Add(1)
		wakeSleepers(&fl.prodCond, fl.prodSleepers)
	}
	fl.prodMu.Unlock()
}

// WakeParked is the producer-side cancellation waker (sched.Waker).
func (fl *flowState) WakeParked() {
	fl.prodMu.Lock()
	fl.prodCond.Broadcast()
	fl.prodMu.Unlock()
}

// wakeSleepers wakes the sleepers of a condition variable whose lock the
// caller holds: with exactly one counted sleeper a Signal suffices — the
// wait set holds at most that goroutine, so the single futex wake either
// reaches it or it is already awake re-checking its predicate — with
// several only a Broadcast is safe.
func wakeSleepers(c *sync.Cond, sleepers int) {
	switch sleepers {
	case 0:
	case 1:
		c.Signal()
	default:
		c.Broadcast()
	}
}

// parkDeadline is the deadline of one timed park: when it passes, expired
// turns true under the condition variable's lock and the sleepers are
// woken to see it. A zero deadline arms nothing — the methods of a nil
// *parkDeadline are no-ops — so an untimed park allocates nothing.
type parkDeadline struct {
	tm      *time.Timer
	expired bool
}

func armDeadline(c *sync.Cond, deadline time.Time) *parkDeadline {
	if deadline.IsZero() {
		return nil
	}
	d := &parkDeadline{}
	d.tm = time.AfterFunc(time.Until(deadline), func() {
		c.L.Lock()
		d.expired = true
		c.Broadcast()
		c.L.Unlock()
	})
	return d
}

func (d *parkDeadline) fired() bool { return d != nil && d.expired }

func (d *parkDeadline) stop() {
	if d != nil {
		d.tm.Stop()
	}
}

// snapshot reads the meter. Counters are loaded independently — the
// snapshot is internally consistent enough for a diagnostic surface, not
// a linearizable read.
func (fl *flowState) snapshot() QueueStat {
	pushed, popped := fl.pushed.Load(), fl.popped.Load()
	return QueueStat{
		Name:           fl.name,
		Bound:          int(fl.bound),
		Occupancy:      int64(pushed - popped),
		HighWater:      fl.highWater.Load(),
		Pushed:         pushed,
		Popped:         popped,
		ProducerBlocks: fl.prodBlocks.Load(),
		ProducerWakes:  fl.prodWakes.Load(),
		ConsumerBlocks: fl.consBlocks.Load(),
		ConsumerWakes:  fl.consWakes.Load(),
		Sheds:          fl.sheds.Load(),
	}
}

// Bound reports the queue's element budget (0 = unbounded).
func (q *Queue[T]) Bound() int {
	if q.flow == nil {
		return 0
	}
	return int(q.flow.bound)
}

// Metrics reports the queue's meter snapshot. ok is false for plain
// unbounded queues, which are not metered.
func (q *Queue[T]) Metrics() (stat QueueStat, ok bool) {
	if q.flow == nil {
		return QueueStat{}, false
	}
	return q.flow.snapshot(), true
}
