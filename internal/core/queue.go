package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core/hyper"
	"repro/internal/sched"
)

// emptySpins bounds the in-slot spin of Empty before it falls back to a
// blocking wait, and emptySpinsQuick is the short lock-free prefix of
// that spin run before the first producer-liveness check (see emptyWait).
const (
	emptySpins      = 128
	emptySpinsQuick = 8
)

// AccessMode is the set of privileges a task holds on a hyperqueue
// (§2.1): push, pop, or both.
type AccessMode uint8

const (
	// ModePush corresponds to pushdep: the task may push values.
	ModePush AccessMode = 1 << iota
	// ModePop corresponds to popdep: the task may pop values and test
	// Empty.
	ModePop
	// ModePushPop corresponds to pushpopdep.
	ModePushPop = ModePush | ModePop
)

func (m AccessMode) String() string {
	switch m {
	case ModePush:
		return "pushdep"
	case ModePop:
		return "popdep"
	case ModePushPop:
		return "pushpopdep"
	}
	return "invalid"
}

// DefaultSegmentCapacity is the queue segment length used when the
// program does not tune it (§5.1 discusses tuning).
const DefaultSegmentCapacity = 256

// Queue is a hyperqueue of values of type T. Create one with New inside a
// task; pass privileges to child tasks by spawning them with Push, Pop or
// PushPop dependences. The task that created the queue holds both
// privileges, like the paper's top-level task.
//
// See the package comment for the locking map: consMu guards the
// consumer-side wait state, regMu the producer registry and shared
// views; consMu orders before regMu; headView and consShard are
// consumer-role-owned; waiters is atomic.
type Queue[T any] struct {
	segCap int

	// Consumer-side state.
	consMu sync.Mutex
	cond   *sync.Cond // signals: data linked, producer retired, consumer ticket served
	// headView is the unique queue view (invariant 2). Its head pointer
	// is manipulated only by the task currently holding the consumer
	// role; role handoff is ticket-based (qviews.popTickets/popServed).
	headView view[T]
	// parked is the consumer-role holder currently blocked in
	// Empty/Pop's capacity-releasing wait, if any; a retiring producer's
	// Complete uses it to link the frontier from its own side. Guarded
	// by consMu; while it is non-nil and consMu is held, the parked
	// frame cannot touch headView.
	parked *qviews[T]
	// waiters is non-zero while the consumer is parked in Empty/Pop and has
	// not been signalled since its last re-check, so producers skip the
	// wake-up lock on every push but the first after a park (wakeConsumer).
	waiters atomic.Int32
	// consShard caches the consumer-role holder's segment-pool shard for
	// the recycle in reachableData (written in acquireConsumer).
	consShard int
	// everProducer is set (and never cleared, except by Recycle) when a
	// push-privileged task is registered. While it is false, every value
	// in the queue was pushed by the owner frame itself, whose pushes
	// extend — or whose completed pop children's deposits physically
	// relink — the head chain, so TryPop/ReadSlice can decide a miss
	// lock-free from the chain walk alone (see tryReachable).
	everProducer atomic.Bool
	// consMuAcquires counts consMu acquisitions while debug checks are
	// enabled; the lock-free fast-path regression tests assert on it. Not
	// touched when debug checks are off.
	consMuAcquires atomic.Uint64
	// sleepers counts every goroutine currently inside a cond.Wait loop on
	// q.cond — Empty/Pop parkers, consumer-role waiters and pop-ticket
	// waiters alike. Guarded by consMu. wakeLocked uses it to downgrade a
	// Broadcast to a Signal when exactly one waiter exists: with a single
	// counted waiter the cond's wait set holds at most that goroutine, so
	// Signal reaches it (or it is already awake re-checking under consMu).
	// The count is deliberately wider than waiters: Signal with an
	// uncounted ticket waiter in the wait set could wake the wrong
	// goroutine and strand the parked consumer.
	sleepers int

	// Producer-registry state.
	regMu sync.Mutex
	// producers holds the frames of live push-privileged tasks, used by
	// Empty's visibility test.
	producers map[*sched.Frame]struct{}
	nlctr     uint64 // non-local pair id allocator
	// eng performs the structural view folds (link, hand-off, deposit,
	// sync fold, frontier fold, head sharing) on the generic substrate
	// (internal/core/hyper). The engine is lock-agnostic; every call
	// that touches shared view-set state runs under regMu (possibly
	// nested inside consMu), preserving the split-lock discipline.
	eng hyper.Engine[view[T], qviewOps[T]]

	// flow is the bounded-capacity / metering block (flow.go), nil for
	// plain unbounded queues — the hot paths pay a single predictable
	// nil check in that case. Immutable after construction.
	flow *flowState

	// failed is the poison cell (cancel.go): nil while healthy, set once
	// by Fail. Park predicates and operation entry points load it; the
	// flow state aliases it for the producer side.
	failed atomic.Pointer[failCell]

	// pool is the runtime-wide segment pool for this queue's element type
	// and segment capacity, resolved through the runtime's PoolProvider
	// at construction. Shared with every other such queue of the runtime.
	// prov is the provider it came from, kept for runtime-wide stats
	// (the recycled-queue counter).
	pool *segPool[T]
	prov *PoolProvider

	owner   *sched.Frame
	ownerQV *qviews[T]

	// deps are the queue's three dependences, indexed by AccessMode-1;
	// Push, Pop and PushPop return pointers into the array (deps.go).
	deps [3]queueDep[T]
}

// qviews is the per-(task, queue) view set of §4: the substrate's
// ViewSet (children, user and right views plus the live-sibling chain)
// together with the queue-specific consumer-serialization tickets.
//
// Locking: vs.User is private to the frame's goroutine (it is only
// touched by the frame's own push/sync/complete, by Prepare calls the
// frame itself makes, and — for a parked consumer — by a Complete-side
// frontier fold holding consMu). vs.Children and vs.Right are shared —
// siblings deposit into them — and are guarded by Queue.regMu, as are
// the sibling links.
type qviews[T any] struct {
	q    *Queue[T]
	mode AccessMode

	// vs is the task's view set on the substrate, maintained by q.eng
	// under q.regMu.
	vs hyper.ViewSet[view[T]]

	// parentQV duplicates vs.Parent at the queue layer (immutable after
	// Prepare): the consumer-serialization tickets below live on
	// qviews, not on the substrate's ViewSet.
	parentQV *qviews[T]

	// Consumer serialization (§2.3 rule 3): pop-privileged children of
	// this frame execute one at a time, in spawn order, and the frame's
	// own pops wait for all of them. popTickets is written only by the
	// frame's own goroutine (Prepare runs in the parent); popServed is
	// advanced by completing pop children, whose completions are
	// themselves serialized; both are atomic for their cross-goroutine
	// readers. popTicket is immutable after Prepare.
	popTickets atomic.Int64
	popServed  atomic.Int64
	popTicket  int64 // this task's ticket within parentQV

	// scratch holds the head-only half of a fresh segment's split between
	// attachFreshSegment taking it and the predecessor fold consuming it
	// (under regMu); ε otherwise.
	scratch view[T]
}

// OnSync implements sched.SyncHook: the view set is its own sync hook.
func (qv *qviews[T]) OnSync() { qv.q.syncHook(qv) }

type queueKey[T any] struct{ q *Queue[T] }

// New creates a hyperqueue owned by frame f with the default segment
// capacity. Options (Bounded, Named) configure flow control and
// metering; the default is the paper's unbounded, unmetered queue.
func New[T any](f *sched.Frame, opts ...QueueOption) *Queue[T] {
	return NewWithCapacity[T](f, DefaultSegmentCapacity, opts...)
}

// NewWithCapacity creates a hyperqueue owned by frame f whose segments
// hold segCap values each (§5.1, queue segment length tuning). The
// initial segment is created immediately (invariant 1) and the queue and
// user views are formed by splitting the local view on it (§4.1). The
// queue draws its segments from the runtime-wide pool shared by every
// queue of the same element type and segment capacity (PoolProvider), so
// even a freshly constructed queue starts on recycled segments.
func NewWithCapacity[T any](f *sched.Frame, segCap int, opts ...QueueOption) *Queue[T] {
	if segCap < 1 {
		segCap = 1
	}
	var o queueOpts
	for _, opt := range opts {
		opt(&o)
	}
	q := &Queue[T]{segCap: segCap, owner: f, producers: make(map[*sched.Frame]struct{})}
	q.cond = sync.NewCond(&q.consMu)
	q.prov = ProviderOf(f.Runtime())
	if o.bound > 0 || o.name != "" {
		q.flow = newFlowState(o.name, o.bound, &q.failed)
		q.prov.registerFlow(q.flow)
	}
	q.pool = poolFor[T](q.prov, segCap)
	s0 := q.pool.get(q.pool.shard(f.WorkerID()))
	qv := &qviews[T]{q: q, mode: ModePushPop}
	qv.vs.Frame = f
	q.nlctr++
	q.headView, qv.vs.User = split(s0, q.nlctr)
	q.ownerQV = qv
	for m := ModePush; m <= ModePushPop; m++ {
		q.deps[m-1] = queueDep[T]{q, m}
	}
	f.SetAttachment(queueKey[T]{q}, qv)
	f.AddSyncHook(qv)
	return q
}

// lockCons acquires the consumer-side lock. With debug checks enabled it
// also counts the acquisition, so the regression tests for the lock-free
// TryPop/ReadSlice miss path can assert that path never reaches here.
func (q *Queue[T]) lockCons() {
	if debugChecks.Load() {
		q.consMuAcquires.Add(1)
	}
	q.consMu.Lock()
}

// DebugConsLockAcquires reports how many times the consumer-side lock
// has been acquired while debug checks were enabled. Zero-delta windows
// around TryPop/ReadSlice misses are what the lock-free fast-path tests
// assert.
func (q *Queue[T]) DebugConsLockAcquires() uint64 { return q.consMuAcquires.Load() }

// lockReg acquires the producer-registry lock. Lock order: consMu
// before regMu — a caller holding consMu may take regMu, never the
// reverse.
func (q *Queue[T]) lockReg() { q.regMu.Lock() }

func (q *Queue[T]) unlockReg() { q.regMu.Unlock() }

// viewsOf returns the view set frame f holds on q, or nil. A view set
// that no longer names q has been retired with its task (putViews): the
// caller reached it through a frame it kept past the task's return.
func (q *Queue[T]) viewsOf(f *sched.Frame) *qviews[T] {
	v, _ := f.Attachment(queueKey[T]{q}).(*qviews[T])
	if v != nil && v.q != q {
		panic("hyperqueue: frame used after its task returned")
	}
	return v
}

func (q *Queue[T]) mustViews(f *sched.Frame, need AccessMode) *qviews[T] {
	qv := q.viewsOf(f)
	if qv == nil {
		panic("hyperqueue: task holds no privileges on this queue; spawn it with a queue dependence")
	}
	if qv.mode&need != need {
		panic("hyperqueue: task lacks " + need.String() + " privilege (holds " + qv.mode.String() + ")")
	}
	return qv
}

// syncHook folds the children view into the user view at a sync point
// (§4.2, "Sync"): user ← reduce(children, user). The fold itself lives
// in the substrate (hyper.Engine.SyncFold).
func (q *Queue[T]) syncHook(qv *qviews[T]) {
	q.lockReg()
	defer q.unlockReg()
	q.eng.SyncFold(&qv.vs)
}

// Push appends v to the queue in the pushing task's position of serial
// program order (§4.1). The fast path appends to the user view's tail
// segment without locks; a pooled segment is linked when the current one
// is full, and the head-sharing protocol runs when the task has no user
// view. It is a one-element bind: the single implementation of the push
// machinery lives in Pusher (handle.go), and loops should bind once via
// BindPush instead of paying the per-element privilege resolution here.
func (q *Queue[T]) Push(f *sched.Frame, v T) {
	p := q.BindPush(f)
	p.Push(v)
}

// attachFreshSegment implements the §4.1 protocol for a push into an
// empty user view: take a segment, split the local view on it, keep the
// tail-only half as the user view and hand the head-only half to the
// immediately preceding view in program order so the consumer can
// discover it as early as possible (the "double reduction" of §4.5).
// The predecessor search — youngest live child, own children view, then
// climbing the spawn tree — lives in the substrate
// (hyper.Engine.ShareToPredecessor).
func (q *Queue[T]) attachFreshSegment(qv *qviews[T]) {
	snew := q.pool.get(q.pool.shard(qv.vs.Frame.WorkerID()))
	q.lockReg()
	defer q.unlockReg()
	q.nlctr++
	qv.scratch, qv.vs.User = split(snew, q.nlctr)
	q.eng.ShareToPredecessor(&qv.vs, &qv.scratch)
}

// wakeConsumer wakes a consumer blocked in Empty or Pop, if any. The
// check is a single atomic load, so a push with no parked consumer — the
// steady state — touches no lock at all, and so does every push between
// the one that signals a parked consumer and that consumer's next park:
// the signalling push clears waiters under consMu, and the consumer sets
// it again only at the top of its next wait-loop turn.
//
// Lost wakeups are impossible. The producer stores the tail and then
// loads waiters; the consumer stores waiters (under consMu) and then
// loads the tail in its reachability re-check. Go's atomics are
// sequentially consistent, so either the producer sees the registration
// or the consumer sees the value. A producer that sees zero because an
// earlier push cleared it is covered too: that push signalled under
// consMu while the consumer was inside Wait, so the consumer's next
// re-check — which begins with a fresh store to waiters, after this
// producer's load — comes after this producer's tail store.
func (q *Queue[T]) wakeConsumer() {
	if q.waiters.Load() == 0 {
		return
	}
	q.lockCons()
	if q.waiters.Load() != 0 {
		q.waiters.Store(0)
		if fl := q.flow; fl != nil {
			fl.consWakes.Add(1)
		}
		q.wakeLocked()
	}
	q.consMu.Unlock()
}

// wakeLocked wakes every cond waiter that could make progress: a Signal
// with exactly one registered sleeper (single-consumer queues never need
// a broadcast), a Broadcast when the classes are mixed (parked consumer,
// ticket waiters). Caller holds consMu.
func (q *Queue[T]) wakeLocked() { wakeSleepers(q.cond, q.sleepers) }

// visibleProducerLive reports whether any live producer's values could
// still become visible to consumer frame cf: a producer that precedes cf
// in the serial elision (and is not an ancestor — an ancestor's
// post-spawn pushes are hidden in cf's right view by rule 4), or a
// descendant of cf (spawned by cf before this pop, hence ordered before
// it). Once false for a parked cf it stays false: no task ordered before
// cf can gain push privileges after cf started waiting. Caller holds
// q.regMu.
func (q *Queue[T]) visibleProducerLive(cf *sched.Frame) bool {
	for pf := range q.producers {
		if pf == cf {
			continue
		}
		if cf.IsAncestorOf(pf) {
			return true
		}
		if pf.Before(cf) && !pf.IsAncestorOf(cf) {
			return true
		}
	}
	return false
}

// acquireConsumer blocks until frame f holds the consumer role: all pop
// tasks it has spawned so far on this queue have completed (§2.3 rule 3;
// §5.5 explains that a frame whose queue view is away simply blocks).
// The fast path is two atomic loads — popTickets is written only by f's
// own goroutine, and popServed only advances. Execution capacity is
// released while waiting. Caller must not hold any queue lock.
// A canceled scope or a poisoned queue wakes the wait (the remaining pop
// children unwind and serve their tickets promptly in the canceled case);
// if the role still cannot be acquired the caller unwinds rather than
// touch the consumer state without it.
func (q *Queue[T]) acquireConsumer(f *sched.Frame, qv *qviews[T]) {
	if qv.popServed.Load() != qv.popTickets.Load() {
		sc := f.CancelScope()
		f.Park(q, func() {
			q.lockCons()
			q.sleepers++
			for qv.popServed.Load() != qv.popTickets.Load() {
				if q.failErr() != nil || sc.Canceled() {
					break
				}
				q.cond.Wait()
			}
			q.sleepers--
			q.consMu.Unlock()
		})
		if qv.popServed.Load() != qv.popTickets.Load() {
			if err := q.failErr(); err != nil {
				q.raiseStop(err)
			}
			q.raiseStop(sc.Err())
		}
	}
	q.consShard = q.pool.shard(f.WorkerID())
}

// reachableData advances the queue view's head across drained segments
// and reports whether a value is available to pop. Only the consumer-role
// holder may call it. It takes no lock: the head pointer and ring indices
// are consumer-owned, and next links are published with atomic stores.
// Each segment drained past is recycled into the segment pool — the
// producer that linked its successor abandoned it (a next link exists
// only once the producer moved on), no view points at it (invariants 4
// and 5), so the consumer owns it exclusively.
func (q *Queue[T]) reachableData() bool {
	for {
		s := q.headView.Head
		if s.size() > 0 {
			return true
		}
		n := s.next.Load()
		if n == nil {
			return false
		}
		// Re-check emptiness after the link load: a value may have landed
		// between the size check and the link load.
		if s.size() > 0 {
			return true
		}
		q.headView.Head = n
		q.pool.put(q.consShard, s)
	}
}

// linkFrontier folds every view ordered before consumer qv's current
// position into the queue view, making the values they hold physically
// reachable from the head chain. This is the §4.5 "double reduction"
// applied at the consumer: deposits performed by completed producers
// (the engine's Retire and ShareToPredecessor) only splice views
// together logically;
// the physical next links materialize when matching local ends finally
// reduce, which without this fold can be as late as the consumer's own
// completion — far too late for its own pops.
//
// Preconditions: the caller holds consMu and regMu, qv's frame holds the
// consumer role, and no live producer precedes qv.frame in the serial
// elision (visibleProducerLive returned false). Under those conditions
// every task ordered before the consumer has completed — pop tasks by
// consumer serialization, push tasks because none is live — and
// deposited its views, transitively, into the children views of the
// consumer's ancestors (root-to-leaf order) or into the consumer's own
// children and user views. Views held by live tasks ordered after the
// consumer, and the consumer's own right view, hold only values ordered
// after it and are left alone (§2.3 rule 4).
//
// The fold runs from two sides: the consumer's own emptiness decision
// (decideEmptyLocked, tryReachable) and a retiring producer's Complete
// when it finds the consumer parked — both under the same two locks, and
// the Complete side only while the consumer cannot concurrently touch
// headView (it is parked under consMu). Repeating the fold is harmless:
// folded views are ε and the re-split below merely renumbers the
// non-local pair.
//
// After the fold the queue view may end in a local tail (every produced
// segment is linked). It is then re-split: the queue view keeps the head
// and a fresh non-local tail, and the consumer's user view takes the
// pushable tail half — the queue view and the user view of the task at
// the serial frontier share one split, restoring invariant 3 and letting
// the consumer's next push extend the chain in place.
func (q *Queue[T]) linkFrontier(qv *qviews[T]) {
	q.eng.FoldFrontier(&qv.vs, &q.headView)
	if q.headView.Tail != nil {
		q.nlctr++
		qv.vs.User = view[T]{HeadNL: q.nlctr, Tail: q.headView.Tail, Valid: true}
		q.headView.Tail = nil
		q.headView.TailNL = q.nlctr
	}
}

// decideEmptyLocked settles the Empty answer once no live producer
// precedes the consumer: it links the frontier views and re-tests
// reachability. If nothing is reachable after the fold, the emptiness is
// permanent. Caller holds consMu and regMu (nested). With debug checks
// enabled a detected contract violation is returned (not panicked — the
// caller raises it after releasing the locks so a violation cannot
// deadlock the task tree).
func (q *Queue[T]) decideEmptyLocked(qv *qviews[T]) (empty bool, violation string) {
	q.linkFrontier(qv)
	if q.reachableData() {
		return false, ""
	}
	if debugChecks.Load() {
		violation = q.checkNoHiddenDataLocked(qv)
	}
	return true, violation
}

// emptyWait is the slow path shared by Empty and Pop, entered after a
// failed reachableData probe. It spins briefly while a visible producer
// is live (in steady state the next value is microseconds away, and the
// consumer is typically the pipeline's serial bottleneck — parking it
// would put it at the back of the capacity queue behind every pending
// producer task), then falls back to a capacity-releasing blocking wait,
// which keeps pathological programs deadlock-free. When no visible
// producer remains, the answer is decided immediately via
// decideEmptyLocked — there is nothing to spin for. While parked, the
// consumer registers itself in q.parked so the last retiring producer
// can link the frontier from its own side and the consumer wakes to
// already-linked data.
func (q *Queue[T]) emptyWait(f *sched.Frame, qv *qviews[T]) bool {
	empty, stop := q.emptyWaitStop(f, qv, time.Time{})
	if stop != nil {
		q.raiseStop(stop)
	}
	return empty
}

// emptyWaitStop is emptyWait with an explicit stop channel out: a
// non-nil stop is the reason the wait gave up without an answer — the
// queue's poison cause, the scope's cancellation cause, or ErrTimeout
// once the deadline fired (deadline.IsZero() means wait forever).
// emptyWait converts a stop into the matching unwind; PopTimeout returns
// it. The deadline timer is created only if the consumer actually parks,
// so the undecided-but-spinning path stays allocation-free.
func (q *Queue[T]) emptyWaitStop(f *sched.Frame, qv *qviews[T], deadline time.Time) (isEmpty bool, stop error) {
	sc := f.CancelScope()
	if err := q.failErr(); err != nil {
		return false, err
	}
	if sc.Canceled() {
		return false, sc.Err()
	}
	for i := 0; i < emptySpinsQuick; i++ {
		runtime.Gosched()
		if q.reachableData() {
			return false, nil
		}
	}
	var empty bool
	var violation string
	q.lockCons()
	q.lockReg()
	if !q.visibleProducerLive(f) {
		empty, violation = q.decideEmptyLocked(qv)
		q.unlockReg()
		q.consMu.Unlock()
		if violation != "" {
			panic(violation)
		}
		return empty, nil
	}
	q.unlockReg()
	q.consMu.Unlock()
	for i := emptySpinsQuick; i < emptySpins; i++ {
		runtime.Gosched()
		if q.reachableData() {
			return false, nil
		}
	}
	f.Park(q, func() {
		dl := armDeadline(q.cond, deadline)
		defer dl.stop()
		q.lockCons()
		q.parked = qv
		q.sleepers++
		for {
			q.waiters.Store(1) // register, then re-check (wakeConsumer)
			if q.reachableData() {
				break
			}
			if err := q.failErr(); err != nil {
				stop = err
				break
			}
			if sc.Canceled() {
				stop = sc.Err()
				break
			}
			if dl.fired() {
				stop = ErrTimeout
				break
			}
			q.lockReg()
			if !q.visibleProducerLive(f) {
				empty, violation = q.decideEmptyLocked(qv)
				q.unlockReg()
				break
			}
			q.unlockReg()
			if fl := q.flow; fl != nil {
				fl.consBlocks.Add(1)
			}
			q.cond.Wait()
		}
		q.sleepers--
		q.parked = nil
		q.waiters.Store(0)
		q.consMu.Unlock()
	})
	if violation != "" {
		panic(violation)
	}
	return empty, stop
}

// Empty reports whether the queue is permanently empty for this task: it
// returns false when a value is available to pop, and true only when it
// is certain no more values visible to this task will arrive (§2.1) —
// see "The Empty contract" in the package comment. It blocks while the
// answer is undecided, releasing the worker slot. Like Pop and TryPop it
// is a one-element bind over the Popper implementation (handle.go);
// consumer loops should bind once via BindPop.
func (q *Queue[T]) Empty(f *sched.Frame) bool {
	p := q.BindPop(f)
	return p.Empty()
}

// Pop removes and returns the value at the head of the queue. Calling Pop
// when Empty would report true is an error and panics, as in the paper
// ("popping elements from an empty queue is an error"). Pop blocks while
// the head value has not yet been produced. The fast path — data already
// linked at the head — takes no locks and does not enter the emptiness
// spin/wait protocol.
func (q *Queue[T]) Pop(f *sched.Frame) T {
	p := q.BindPop(f)
	return p.Pop()
}

// TryPop is a non-blocking variant used by slice-style consumers: it
// returns the head value if one is immediately reachable. Before giving
// up it links any frontier views deposited by completed producers, so a
// value that exists and is ordered before the consumer is never missed.
func (q *Queue[T]) TryPop(f *sched.Frame) (T, bool) {
	p := q.BindPop(f)
	return p.TryPop()
}

// tryReachable is the non-blocking reachability probe shared by TryPop
// and ReadSlice: reachableData, with a frontier fold when it is safe (no
// live producer precedes the consumer). In that safe case a false
// answer is as strong as a true Empty — no preceding value exists — so
// the same no-hidden-data assertion applies under debug checks.
//
// When no producer was ever registered on the queue, the miss is decided
// without taking any lock. The frontier fold exists to materialize
// physical next links for values that traveled through deposited views,
// and only registered (push-privileged, non-owner) tasks can leave such
// values dangling at a moment they are visible to the consumer: the
// owner is the sole unregistered pusher, and its pushes either extend
// the chain in place (its user view holds the open tail) or land in a
// fresh segment deposited toward a live pop child — a segment that is
// ordered after that child (§2.3 rule 4, hence correctly invisible to
// it) and that is physically linked by the child's own completion
// deposit (reduce of two local ends) before any later consumer can
// acquire the role (consumer serialization orders the completion before
// the handoff). So with the registry forever empty, every value ordered
// before the current consumer-role holder is already reachable from the
// head chain, and a failed chain walk is a definitive miss. A producer
// registered concurrently with the probe can only be ordered after the
// consumer (tasks ordered before it have completed or are the consumer's
// ancestors, whose later spawns follow it in program order), so the race
// on everProducer is benign.
func (q *Queue[T]) tryReachable(f *sched.Frame, qv *qviews[T]) bool {
	if q.reachableData() {
		return true
	}
	if !q.everProducer.Load() {
		return false
	}
	var violation string
	q.lockCons()
	q.lockReg()
	if !q.visibleProducerLive(f) {
		q.linkFrontier(qv)
		if debugChecks.Load() && !q.reachableData() {
			violation = q.checkNoHiddenDataLocked(qv)
		}
	}
	q.unlockReg()
	q.consMu.Unlock()
	if violation != "" {
		panic(violation)
	}
	return q.reachableData()
}

// SyncPop suspends the calling frame until all of its child tasks with
// pop privileges on this queue have completed — the paper's selective
// sync, "sync (popdep<int>)queue;" (§5.5).
func (q *Queue[T]) SyncPop(f *sched.Frame) {
	qv := q.mustViews(f, ModePop)
	q.acquireConsumer(f, qv)
}

// SegmentCapacity reports the configured segment length.
func (q *Queue[T]) SegmentCapacity() int { return q.segCap }

// CanRecycle reports whether Recycle would find the queue quiescent for
// owner frame f: every task ever granted privileges on the queue has
// completed and deposited its views back. It does not check that the
// queue is drained — Recycle itself verifies that and panics otherwise.
// Quiescence is stable: only f can grant new privileges, so a true
// answer remains true until f spawns again. The probe is cheap (two
// atomic loads plus one registry-lock check) and safe to poll from the
// owner while other pipelines run; churny callers (dedup's per-chunk
// pipelines) use it to pick a reusable queue out of their in-flight set.
func (q *Queue[T]) CanRecycle(f *sched.Frame) bool {
	qv := q.viewsOf(f)
	if qv == nil || qv.parentQV != nil {
		return false
	}
	if qv.popServed.Load() != qv.popTickets.Load() {
		return false
	}
	q.lockReg()
	ok := len(q.producers) == 0 && qv.vs.ChildHead == nil
	q.unlockReg()
	return ok
}

// Recycle resets a fully-drained, quiescent queue in place so the owner
// can run another pipeline instance through it without paying the
// construction cost again: every segment of the chain is returned to the
// runtime-wide pool, a pooled segment is split into fresh queue and user
// views (exactly as in NewWithCapacity), and the producer registry is
// rearmed — including the never-had-a-producer state that enables the
// lock-free TryPop/ReadSlice miss path. A bounded queue needs no reset:
// drained means pushed == popped, which is the full budget.
//
// Only the owning task (the frame that created the queue) may call it,
// at a point where every task granted privileges has completed — after a
// Sync covering all of them, or when CanRecycle reports true. Recycle
// panics if a privilege-holding task is still live or if any value
// remains in the queue (recycling would silently drop it); drain the
// queue to permanent emptiness first. The owner's views, sync hook and
// frame attachment are retained, so a recycled queue costs no per-reuse
// allocations at all.
func (q *Queue[T]) Recycle(f *sched.Frame) {
	qv := q.mustViews(f, ModePushPop)
	if qv.parentQV != nil {
		panic("hyperqueue: only the owning task may Recycle a queue")
	}
	q.lockCons()
	q.lockReg()
	switch {
	case len(q.producers) > 0:
		q.unlockReg()
		q.consMu.Unlock()
		panic("hyperqueue: Recycle while push-privileged tasks are live")
	case qv.vs.ChildHead != nil:
		q.unlockReg()
		q.consMu.Unlock()
		panic("hyperqueue: Recycle while tasks holding privileges on the queue are live")
	case qv.popServed.Load() != qv.popTickets.Load():
		q.unlockReg()
		q.consMu.Unlock()
		panic("hyperqueue: Recycle before all pop-privileged tasks completed")
	}
	// Fold every deposited view into the head chain (no producer is live,
	// so the §4.5 frontier fold covers everything), then verify the chain
	// holds no data before releasing it.
	q.linkFrontier(qv)
	for s := q.headView.Head; s != nil; s = s.next.Load() {
		if s.size() > 0 {
			q.unlockReg()
			q.consMu.Unlock()
			panic("hyperqueue: Recycle on a non-empty queue (drain it to permanent emptiness first)")
		}
	}
	sid := q.pool.shard(f.WorkerID())
	for s := q.headView.Head; s != nil; {
		next := s.next.Load()
		q.pool.put(sid, s) // resets the segment; drops oversized ones
		s = next
	}
	s0 := q.pool.get(sid)
	q.nlctr++
	q.headView, qv.vs.User = split(s0, q.nlctr)
	qv.vs.Children, qv.vs.Right = emptyView[T](), emptyView[T]()
	q.everProducer.Store(false)
	q.unlockReg()
	q.consMu.Unlock()
	q.prov.recycles.Add(1)
}
