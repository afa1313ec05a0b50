// Package swan is the public API of this reproduction of "Deterministic
// Scale-Free Pipeline Parallelism with Hyperqueues" (Vandierendonck,
// Chronaki, Nikolopoulos; SC 2013). It bundles the Swan-like task runtime
// (spawn/sync with dependence-aware scheduling), versioned objects
// (indep/outdep/inoutdep task dataflow), and hyperqueues
// (pushdep/popdep/pushpopdep deterministic queues).
//
// # Quickstart
//
// The paper's Figure 2 — a recursively parallel producer feeding one
// consumer through a hyperqueue — looks like this:
//
//	rt := swan.New(runtime.NumCPU())
//	rt.Run(func(f *swan.Frame) {
//		q := swan.NewQueue[int](f)
//		f.Spawn(func(c *swan.Frame) {
//			var produce func(c *swan.Frame, lo, hi int)
//			produce = func(c *swan.Frame, lo, hi int) {
//				if hi-lo <= 10 {
//					for n := lo; n < hi; n++ {
//						q.Push(c, compute(n))
//					}
//					return
//				}
//				mid := (lo + hi) / 2
//				c.Spawn(func(g *swan.Frame) { produce(g, lo, mid) }, swan.Push(q))
//				c.Spawn(func(g *swan.Frame) { produce(g, mid, hi) }, swan.Push(q))
//			}
//			produce(c, 0, total)
//		}, swan.Push(q))
//		f.Spawn(func(c *swan.Frame) {
//			for !q.Empty(c) {
//				consume(q.Pop(c))
//			}
//		}, swan.Pop(q))
//		f.Sync()
//	})
//
// The program is scale-free — nothing in it mentions the worker count —
// and deterministic: the consumer observes values in serial program
// order regardless of scheduling.
//
// # Determinism
//
// Every program written against this package has a serial elision: erase
// Spawn/Sync (run children inline) and the hyperqueue behaves as a plain
// FIFO queue, the versioned objects as plain variables. The runtime
// guarantees parallel executions are indistinguishable from the serial
// elision as observed through queue pops and versioned-object reads.
package swan

import (
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/sched"
)

// Cancellation and overload errors. Run returns ErrCanceled when its
// cancel scope was canceled (Frame.CancelScope().Cancel, Runtime.Cancel)
// and the scope's cause otherwise; the deadline-bearing queue operations
// (Pusher.PushTimeout, Popper.PopTimeout, Sharded.Drain) return
// ErrTimeout when the deadline fires first; PopTimeout returns ErrEmpty
// when the queue is permanently empty; operations on a queue poisoned by
// Queue.Fail observe the Fail error (ErrQueueFailed when Fail was given
// nil).
var (
	ErrCanceled    = sched.ErrCanceled
	ErrTimeout     = core.ErrTimeout
	ErrEmpty       = core.ErrEmpty
	ErrQueueFailed = core.ErrQueueFailed
)

// CancelScope is the cooperative cancellation scope of a Run (or of a
// Frame.ScopedCall subtree). Cancel wakes every parked task in the scope
// — credit-parked producers, consumers parked in Pop/Empty, tasks gated
// on pop tickets — which unwind instead of blocking forever; the Run
// then quiesces (views fold, the segment pool balances) and returns the
// scope's error. Scopes form a tree: canceling a parent cancels its
// ScopedCall children, never the reverse.
type CancelScope = sched.CancelScope

// PanicError is the error a Run's scope carries when a task body
// panicked: the panic cancels the scope (siblings stop), is re-raised
// out of Run, and siblings that observe the cancellation unwind with a
// cause of *PanicError.
type PanicError = sched.PanicError

// CancelUnwind and AbortUnwind are the sentinel panic values the runtime
// uses to unwind a task out of a park site after a cancellation or a
// queue Fail. Task bodies that recover for cleanup must re-panic values
// of these types; the substrate absorbs them and still runs the
// completion protocol.
type (
	CancelUnwind = sched.CancelUnwind
	AbortUnwind  = sched.AbortUnwind
)

// Runtime schedules tasks over a fixed number of worker slots; the slot
// count plays the role of the core count and is the only
// machine-dependent parameter of a program.
type Runtime = sched.Runtime

// Frame is the runtime context of one task: the handle for spawning
// children, syncing, and accessing queues and versioned objects.
//
// A frame belongs to its task and must not be retained past it: the
// runtime reuses the frame's record for a later spawn once the task has
// returned (its body, its implicit sync and its dependences' completions),
// exactly as bound queue handles must not outlive the body they were
// bound in. Using a frame whose task has returned panics with "frame used
// after its task returned". Code that needs a task's place in program
// order afterwards keeps its Label, a copy, taken from inside the task.
type Frame = sched.Frame

// Dep is a dependence passed at spawn time: a queue access mode (Push,
// Pop, PushPop) or a versioned-object access mode (In, Out, InOut).
type Dep = sched.Dep

// BatchChild is one child of a Frame.SpawnBatch: a body plus its
// spawn-time dependences. SpawnBatch — and its uniform-deps form
// SpawnN — spawns a whole wave of children with one scheduler
// publication (a single deque tail store and one worker wake sweep)
// while keeping the serial elision identical to consecutive Spawn
// calls. Pipeline stages that fan out k worker tasks per popped batch
// (the §5.4 loop-split idiom) use it to take spawn overhead off their
// critical path.
type BatchChild = sched.BatchChild

// Queue is a hyperqueue of values of type T (paper §2–§4).
type Queue[T any] = core.Queue[T]

// Pusher is a push handle bound to one task body by Queue.BindPush: the
// privilege resolution Queue.Push repeats per element (view-set lookup,
// privilege check, pool-shard derivation) is done once at bind time, so
// steady-state Push is a straight-line segment-ring append and PushSlice
// moves whole slices across segment boundaries with one consumer wake-up
// probe per call. Bind in any task body that moves more than a couple of
// values; handles must not outlive the body they were bound in.
type Pusher[T any] = core.Pusher[T]

// Popper is the pop-side bound handle (Queue.BindPop): it acquires the
// consumer role once and exposes Pop, TryPop, Empty, bulk PopInto and
// the §5.2 ReadSlice/ConsumeRead pair without per-element privilege
// resolution. Pop children spawned after the bind still serialize before
// the binder's later pops — the handle revalidates the consumer ticket
// on each access.
type Popper[T any] = core.Popper[T]

// Versioned is a dataflow variable of type T with automatic versioning
// (renaming) to break artificial dependences.
type Versioned[T any] = dataflow.Versioned[T]

// SpawnPolicy selects the scheduling substrate of a Runtime: the
// work-stealing pool (PolicySteal, the default) or the goroutine-per-task
// baseline kept for ablations (PolicyGoroutine). Programs must behave
// identically under both; the regression tests and cmd/quickcheck verify
// that.
type SpawnPolicy = sched.SpawnPolicy

const (
	// PolicySteal dispatches tasks through per-worker work-stealing
	// deques (the default).
	PolicySteal = sched.PolicySteal
	// PolicyGoroutine runs one goroutine per task, gated by a slot
	// semaphore (the ablation baseline).
	PolicyGoroutine = sched.PolicyGoroutine
)

// New returns a runtime with the given number of worker slots.
func New(workers int) *Runtime { return sched.New(workers) }

// NewWithPolicy returns a runtime with the given number of worker slots
// on an explicitly chosen scheduling substrate.
func NewWithPolicy(workers int, policy SpawnPolicy) *Runtime {
	return sched.NewWithPolicy(workers, policy)
}

// DefaultPolicy reports the substrate New uses, which honors the
// REPRO_SCHED environment variable ("steal" or "goroutine").
func DefaultPolicy() SpawnPolicy { return sched.DefaultPolicy() }

// SetQueueDebugChecks enables or disables the hyperqueue's runtime
// self-checking assertions process-wide — most importantly, that a true
// Empty answer never hides values a completed producer pushed before the
// consumer's position. Verifier harnesses (cmd/quickcheck, the
// regression tests) turn this on; a violated assertion panics and is
// re-raised by Run.
func SetQueueDebugChecks(on bool) { core.SetDebugChecks(on) }

// QueueOption configures a queue at construction: Bounded adds flow
// control, Named adds metering. The zero-option default is the paper's
// unbounded, unmetered queue.
type QueueOption = core.QueueOption

// Bounded caps the queue at n buffered values. A push into a full queue
// blocks — releasing the worker slot, so the scheduler cannot deadlock —
// until the consumer drains; bulk pushes (PushSlice, CommitWrite) make
// progress in credit-sized chunks through any bound. Bounded queues are
// automatically metered (occupancy, high-water, block/wake counters;
// see Stats and ServeMetrics).
//
// Backpressure couples producer progress to consumer progress, which is
// safe whenever values are produced in serial program order — a single
// producer task per stage, as every pipeline helper in this package
// spawns. Concurrent sibling producers can outrun the serial order and
// fill the bound with values the consumer cannot reach yet; size the
// bound above their maximum lead, or keep such stages unbounded (see
// OPERATIONS.md, "Choosing a bound").
func Bounded(n int) QueueOption { return core.Bounded(n) }

// Named meters an unbounded queue under the given name so it appears in
// Stats and the metrics endpoint. Bounded queues are metered already;
// Named gives them a stable label instead of the automatic "queue-N".
func Named(name string) QueueOption { return core.Named(name) }

// NewQueue creates a hyperqueue owned by the calling task's frame. The
// owner holds both push and pop privileges, like the paper's top-level
// task.
func NewQueue[T any](f *Frame, opts ...QueueOption) *Queue[T] { return core.New[T](f, opts...) }

// NewQueueWithCapacity creates a hyperqueue with a tuned segment length
// (paper §5.1).
func NewQueueWithCapacity[T any](f *Frame, segCap int, opts ...QueueOption) *Queue[T] {
	return core.NewWithCapacity[T](f, segCap, opts...)
}

// Push grants the spawned task push-only access to q (pushdep).
func Push[T any](q *Queue[T]) Dep { return core.Push(q) }

// Pop grants the spawned task pop-only access to q (popdep).
func Pop[T any](q *Queue[T]) Dep { return core.Pop(q) }

// PushPop grants the spawned task both privileges (pushpopdep).
func PushPop[T any](q *Queue[T]) Dep { return core.PushPop(q) }

// NewVersioned returns a versioned variable holding initial.
func NewVersioned[T any](initial T) *Versioned[T] { return dataflow.NewVersioned(initial) }

// In grants the spawned task read access to v (indep).
func In[T any](v *Versioned[T]) Dep { return dataflow.In(v) }

// Out grants the spawned task write access to a fresh version of v
// (outdep); renaming means the task never waits.
func Out[T any](v *Versioned[T]) Dep { return dataflow.Out(v) }

// InOut grants the spawned task read-write access to v (inoutdep),
// serialized after the previous version's writer and readers.
func InOut[T any](v *Versioned[T]) Dep { return dataflow.InOut(v) }
