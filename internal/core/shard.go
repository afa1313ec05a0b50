package core

import (
	"fmt"
	"time"

	"repro/internal/sched"
)

// Sharded is a deterministic pipeline-of-pipelines: the hyperqueue is
// single-consumer by design (the pop privilege serializes along program
// order, §2.3), so a pipeline scales past one consumer by *partitioning*
// the stream over N per-shard hyperqueues — never by splitting a
// consumer role. A router task pops the ingress queue and fans each
// value out by a caller-supplied content-based partition function
// (reduced mod N); one worker task per shard consumes its own queue; and
// a merger task folds the per-shard results back into serial program
// order by replaying the router's routing decisions from a side queue of
// shard indices. Every queue involved keeps exactly one consumer, so the
// whole construction inherits the determinism argument of the single
// pipeline: the egress stream is byte-identical for any worker count,
// shard count, and schedule.
//
// Flow control is per shard: the shard input and result queues are
// bounded (credit-based backpressure, flow.go), so one slow shard blocks
// only its own router pushes once its bound fills — siblings keep
// draining up to their own bounds. Every stage moves what its input
// already holds in one bulk transfer of up to batch = min(256, Bound)
// elements (see Launch), so besides its two queues a shard's values may
// sit in the router's staged span, the worker's popped batch and the
// merger's prefetched results: at most 2×Bound + 3×batch values per
// shard are in flight, N times that in total. The router, worker and
// merger loops run entirely on bound handles and buffers allocated once
// per Launch, and are allocation-free in steady state.
//
// Program-order discipline (visibility, §2.3 rule 4): producers into
// In() must be spawned before Launch, and the consumer of Out() must be
// spawned after Launch, so that router → shard workers → merger →
// egress consumer is a program-order chain and each stage's values are
// visible to the next.
type Sharded[I, O any] struct {
	cfg   ShardConfig
	owner *sched.Frame
	part  func(I) uint64
	work  func(f *sched.Frame, shard int) func(I) O
	deps  []sched.Dep

	in    *Queue[I]
	out   *Queue[O]
	route *Queue[int32] // router's shard decisions, in arrival order
	inQ   []*Queue[I]   // per-shard input (bounded)
	resQ  []*Queue[O]   // per-shard results (bounded)

	// drained closes when the merger task completes — every routed value
	// merged into Out, or the merger unwound under cancellation/poison.
	// The close runs in the merger's dep Complete, which the substrate
	// runs even for tasks whose body was skipped, so Drain never waits on
	// a task that will not run.
	drained chan struct{}

	launched bool
}

// DefaultShardBound is the per-shard queue bound used when ShardConfig
// leaves Bound zero: deep enough to decouple shards across scheduling
// hiccups, shallow enough that a stalled shard pins at most a few
// segments per queue.
const DefaultShardBound = 1024

// ShardConfig configures NewSharded.
type ShardConfig struct {
	// Shards is the number of partitions N (minimum 1).
	Shards int
	// Bound caps each per-shard input and result queue (default
	// DefaultShardBound). It is the isolation budget: a blocked shard
	// holds at most 2×Bound values in its queues plus one batch of
	// min(256, Bound) in each of router, worker and merger.
	Bound int
	// SegCap overrides the hyperqueue segment capacity (0 = default).
	SegCap int
	// Name, when non-empty, meters every queue of the fan-out under
	// "<Name>.in", "<Name>.route", "<Name>.shard<i>.in",
	// "<Name>.shard<i>.out" and "<Name>.out" in the queue stats registry,
	// exposing per-shard occupancy and block/wake counters.
	Name string
}

func (c *ShardConfig) normalize() {
	if c.Shards < 1 {
		c.Shards = 1
	}
	if c.Bound <= 0 {
		c.Bound = DefaultShardBound
	}
}

// NewSharded creates the shard fan-out on the calling task's frame f:
// the ingress queue (In), N bounded per-shard pipelines, and the egress
// queue (Out). part maps a value to a partition key (reduced mod N —
// values with equal keys are processed by the same shard, in arrival
// order). work builds one shard's transform: it is called once per shard
// inside that shard's consumer task and may bind per-task state
// (reducer handles, local tables); the returned function is then applied
// to every value routed to the shard. workerDeps are granted to every
// shard worker task in addition to its queue privileges (hyperobject
// access, typically).
//
// Call order matters (see the type comment): spawn producers into In(),
// then Launch(f), then spawn the consumer of Out().
func NewSharded[I, O any](
	f *sched.Frame,
	cfg ShardConfig,
	part func(I) uint64,
	work func(f *sched.Frame, shard int) func(I) O,
	workerDeps ...sched.Dep,
) *Sharded[I, O] {
	cfg.normalize()
	s := &Sharded[I, O]{cfg: cfg, owner: f, part: part, work: work, deps: workerDeps}
	name := func(format string, args ...any) []QueueOption {
		if cfg.Name == "" {
			return nil
		}
		return []QueueOption{Named(cfg.Name + fmt.Sprintf(format, args...))}
	}
	newQ := func(opts []QueueOption) *Queue[I] {
		if cfg.SegCap > 0 {
			return NewWithCapacity[I](f, cfg.SegCap, opts...)
		}
		return New[I](f, opts...)
	}
	newR := func(opts []QueueOption) *Queue[O] {
		if cfg.SegCap > 0 {
			return NewWithCapacity[O](f, cfg.SegCap, opts...)
		}
		return New[O](f, opts...)
	}
	s.drained = make(chan struct{})
	s.in = newQ(name(".in"))
	s.out = newR(name(".out"))
	s.route = New[int32](f, name(".route")...)
	s.inQ = make([]*Queue[I], cfg.Shards)
	s.resQ = make([]*Queue[O], cfg.Shards)
	for i := range s.inQ {
		s.inQ[i] = newQ(append(name(".shard%d.in", i), Bounded(cfg.Bound)))
		s.resQ[i] = newR(append(name(".shard%d.out", i), Bounded(cfg.Bound)))
	}
	return s
}

// In returns the ingress queue. Spawn producers on it (with Push
// privilege) before calling Launch.
func (s *Sharded[I, O]) In() *Queue[I] { return s.in }

// Out returns the egress queue: results in ingress arrival order. Spawn
// its consumer (with Pop privilege) after calling Launch.
func (s *Sharded[I, O]) Out() *Queue[O] { return s.out }

// Shards reports the partition count N.
func (s *Sharded[I, O]) Shards() int { return s.cfg.Shards }

// DebugChainSegments sums Queue.DebugChainSegments over every queue of
// the fan-out (ingress, route log, per-shard pairs, egress). Owner-only
// and quiescent-only, like the queue-level call; the soak harness uses
// it to account a fan-out's segments before abandoning it.
func (s *Sharded[I, O]) DebugChainSegments(f *sched.Frame) uint64 {
	n := s.in.DebugChainSegments(f) + s.out.DebugChainSegments(f) +
		s.route.DebugChainSegments(f)
	for i := range s.inQ {
		n += s.inQ[i].DebugChainSegments(f) + s.resQ[i].DebugChainSegments(f)
	}
	return n
}

// Launch spawns the fan-out tasks — router, one worker per shard, merger
// — on the owning frame, in that (program) order. It must be called
// exactly once, from the task body that created the Sharded, after the
// In-side producers were spawned.
//
// Every stage moves elements in batches. One PopInto takes what the
// stage's input holds right now, up to batch = min(batchCap, Bound),
// and the stage hands all of it on before it looks at its input again:
// no stage waits to fill a batch. A stage blocks in Empty() on an empty
// input, exactly where an element-at-a-time loop would, and holds nothing
// unpublished when it does. With Bound = 1 the batch is one element and
// the same code moves one element at a time.
//
// Staging cannot deadlock. The router may park on shard A's credits
// while it holds staged values for shard B, and the merger may be
// waiting for one of those. The wait cycle that would close is
// router → A.in's credits → worker A → A.out's credits → merger → a
// staged B value → router. It needs A.in and A.out both full, 2·Bound
// values the merger has not taken. The route queue is unbounded and the
// route span is published before any shard span, so the merger holds
// every entry of the batch the router is flushing and has merged all
// that precede the B entry it waits on — every entry of every earlier
// batch among them. The 2·Bound values on shard A therefore belong to
// the batch in the router's hands, which has at most Bound. Workers and
// merger only ever take values out of the bounded queues early, which
// returns credits and blocks nobody.
func (s *Sharded[I, O]) Launch(f *sched.Frame) {
	if f != s.owner {
		panic("swan: Sharded.Launch must be called on the frame that created it")
	}
	if s.launched {
		panic("swan: Sharded.Launch called twice")
	}
	s.launched = true
	n := s.cfg.Shards
	batch := min(batchCap, s.cfg.Bound)

	// Router: pop a batch of the ingress stream, stage each value on its
	// shard, publish the batch's shard indices on the route queue and then
	// each shard's staged span. The route queue is the merge schedule: it
	// records arrival order once, so the merger needs no timestamps or
	// sequence numbers.
	routerDeps := make([]sched.Dep, 0, n+2)
	routerDeps = append(routerDeps, Pop(s.in), Push(s.route))
	for i := range s.inQ {
		routerDeps = append(routerDeps, Push(s.inQ[i]))
	}
	f.Spawn(func(c *sched.Frame) {
		in := s.in.BindPop(c)
		rt := s.route.BindPush(c)
		pushers := make([]Pusher[I], n)
		for i := range pushers {
			pushers[i] = s.inQ[i].BindPush(c)
		}
		shards := make([]int32, batch)
		staged := make([][]I, n)
		for i := range staged {
			staged[i] = make([]I, 0, batch)
		}
		mod := uint64(n)
		in.PopBatches(batch, func(vs []I) {
			for i, v := range vs {
				sh := int32(s.part(v) % mod)
				shards[i] = sh
				staged[sh] = append(staged[sh], v)
			}
			rt.PushSlice(shards[:len(vs)])
			for sh, vs := range staged {
				if len(vs) == 0 {
					continue
				}
				pushers[sh].PushSlice(vs) // parks on this shard's budget only
				clear(vs)
				staged[sh] = vs[:0]
			}
		})
	}, routerDeps...)

	// Shard workers: each consumes its own queue in routed order and
	// emits one result per value. The worker factory runs inside the
	// task body so it can bind per-task state (reducer handles, local
	// tables) before the steady-state loop. Only the accounting is
	// batched — one credit return for the popped batch, one reservation
	// for as many results as the result queue's budget grants. Result i
	// is published before fn sees element i+1: fn is user code of
	// unbounded cost, and a worker that sat on finished results until its
	// batch was done would stall the merger for batch × cost.
	for i := range s.inQ {
		shard := i
		deps := make([]sched.Dep, 0, len(s.deps)+2)
		deps = append(deps, Pop(s.inQ[shard]), Push(s.resQ[shard]))
		deps = append(deps, s.deps...)
		f.Spawn(func(c *sched.Frame) {
			fn := s.work(c, shard)
			in := s.inQ[shard].BindPop(c)
			out := s.resQ[shard].BindPush(c)
			in.PopBatches(batch, func(vs []I) {
				for len(vs) > 0 {
					granted := out.reserve(len(vs)) // waits for budget for at least one
					for _, v := range vs[:granted] {
						out.q.checkFailed() // a poisoned fan-out stops within one element
						out.append1(fn(v))
					}
					vs = vs[granted:]
				}
			})
		}, deps...)
	}

	// Merger: replay the routing decisions a batch at a time, serving
	// each shard's results from a buffer refilled by PopInto, and publish
	// the merged run with one PushSlice. Every route entry is matched by
	// exactly one eventual result on that shard (workers are 1-in-1-out),
	// so the merger waits on a shard only transiently — and before it
	// waits it publishes the run merged so far.
	mergerDeps := make([]sched.Dep, 0, n+3)
	mergerDeps = append(mergerDeps, Pop(s.route), Push(s.out), doneDep{s.drained})
	for i := range s.resQ {
		mergerDeps = append(mergerDeps, Pop(s.resQ[i]))
	}
	f.Spawn(func(c *sched.Frame) {
		rt := s.route.BindPop(c)
		out := s.out.BindPush(c)
		poppers := make([]Popper[O], n)
		for i := range poppers {
			poppers[i] = s.resQ[i].BindPop(c)
		}
		shards := make([]int32, batch)
		run := make([]O, 0, batch) // merged, not yet published
		results := make([][]O, n)  // shard sh's prefetch buffer ...
		ready := make([][]O, n)    // ... and the part of it not yet merged
		for i := range results {
			results[i] = make([]O, batch)
		}
		var zero O
		flush := func() {
			out.PushSlice(run)
			clear(run)
			run = run[:0]
		}
		for !rt.Empty() {
			k := rt.PopInto(shards)
			for _, sh := range shards[:k] {
				if len(ready[sh]) == 0 {
					buf := results[sh]
					got := poppers[sh].PopInto(buf)
					if got == 0 {
						flush()
						buf[0] = poppers[sh].Pop() // waits for the worker
						got = 1
					}
					ready[sh] = buf[:got]
				}
				run = append(run, ready[sh][0])
				ready[sh][0] = zero
				ready[sh] = ready[sh][1:]
			}
			flush()
		}
	}, mergerDeps...)
}

// doneDep closes its channel in Complete — a completion beacon that
// fires whether the task's body ran, unwound, or was skipped by a
// canceled scope. Always Ready, so it does not push the task onto the
// gated-dep Block path.
type doneDep struct{ ch chan struct{} }

func (d doneDep) Prepare(parent, child *sched.Frame)  {}
func (d doneDep) Wait(child *sched.Frame)             {}
func (d doneDep) Ready(child *sched.Frame) bool       { return true }
func (d doneDep) Complete(parent, child *sched.Frame) { close(d.ch) }

// Drained reports without blocking whether the merger has completed.
func (s *Sharded[I, O]) Drained() bool {
	select {
	case <-s.drained:
		return true
	default:
		return false
	}
}

// Drain waits — releasing execution capacity, like any queue wait — until
// the merger task has completed, i.e. every value routed so far has been
// merged into Out (or the pipeline unwound under cancellation/poison),
// and returns nil. It returns ErrTimeout if the deadline d fires first,
// and the cancellation cause if the calling frame's scope is canceled
// while waiting. It is the graceful-teardown rendezvous: push the final
// values, Drain with a deadline, and escalate to Fail (or a scope cancel)
// if the deadline fires. The completed-already fast path takes no lock
// and allocates nothing. Drain may be called from any task of the run
// (concurrently, repeatedly); it does not require privileges on the
// fan-out's queues.
func (s *Sharded[I, O]) Drain(f *sched.Frame, d time.Duration) error {
	if !s.launched {
		panic("swan: Sharded.Drain before Launch")
	}
	select {
	case <-s.drained:
		return nil
	default:
	}
	sc := f.CancelScope()
	var err error
	cancelCh := make(closeWaker)
	f.Park(cancelCh, func() {
		tm := time.NewTimer(d)
		defer tm.Stop()
		select {
		case <-s.drained:
		case <-cancelCh:
			err = sc.Err()
		case <-tm.C:
			err = ErrTimeout
		}
	})
	return err
}

// closeWaker is the cancellation waker of a wait that selects on a
// channel: the scope closes it, at most once.
type closeWaker chan struct{}

func (c closeWaker) WakeParked() { close(c) }

// Fail poisons every queue of the fan-out with err (nil means
// ErrQueueFailed): the router, shard workers and merger — wherever
// parked, including credit parks on the bounded per-shard queues — wake
// and unwind, the scope of the run they belong to is canceled with err,
// and Drain callers see the merger complete. It is the hard-teardown
// counterpart of Drain for a fan-out whose consumer is gone.
func (s *Sharded[I, O]) Fail(err error) {
	s.in.Fail(err)
	s.route.Fail(err)
	s.out.Fail(err)
	for i := range s.inQ {
		s.inQ[i].Fail(err)
		s.resQ[i].Fail(err)
	}
}
