package core

import "repro/internal/sched"

// Bound queue handles: the per-task-body amortization of the privilege
// machinery. Queue.Push and Queue.Pop re-resolve the task's view set
// (Frame.Attachment), re-check the privilege mask, and — for consumers —
// re-arbitrate the consumer role and re-derive the segment-pool shard on
// every element. None of that state can change more often than once per
// spawn/sync boundary, so a task body that moves many values through a
// queue pays a per-element tax for a per-body decision. BindPush/BindPop
// perform those resolutions once and return a handle whose steady-state
// Push/Pop is a straight-line segment-ring operation, plus bulk
// PushSlice/PopInto transfers that cross segment boundaries in one call
// and touch the consumer wake-up probe once per call instead of once per
// element.
//
// Handles cache only bindings that are immutable for the frame's
// lifetime (the qviews pointer, the pool shard — stable for one task
// body, see Frame.WorkerID); every mutable structure they touch
// (the user view, the queue view, the pop tickets) is read through those
// pointers at access time. The view algebra's invalidation points —
// Prepare stealing the user view at spawn, syncHook folding children at
// sync, linkFrontier re-splitting the frontier, Recycle re-arming the
// queue — therefore need no handle bookkeeping at all: the handle
// observes the post-invalidation state on its next access, exactly as
// the unbound methods do. The one revalidation a handle performs itself
// is the consumer-role ticket check (two atomic loads) before each pop,
// because pop children spawned after BindPop must still serialize before
// the binder's later pops (§2.3 rule 3).
//
// Like the unbound methods with an explicit frame argument, a handle may
// only be used by the goroutine currently running the task body of the
// frame it was bound to, and must not outlive that body.

// Pusher is a push-privileged handle on a queue, bound to one task body
// by Queue.BindPush.
type Pusher[T any] struct {
	q     *Queue[T]
	qv    *qviews[T]
	shard int
}

// BindPush resolves frame f's push privilege on q once and returns the
// bound handle. It panics, like Push, if f holds no push privilege.
func (q *Queue[T]) BindPush(f *sched.Frame) Pusher[T] {
	qv := q.mustViews(f, ModePush)
	return Pusher[T]{q: q, qv: qv, shard: q.pool.shard(f.WorkerID())}
}

// Push appends v in the pushing task's position of serial program order —
// Queue.Push without the per-element privilege resolution.
//
// The consumer wake-up probe (one atomic load of waiters) is kept per
// element rather than batched per segment: a deferred wake would let a
// consumer parked mid-segment sleep until the segment fills, and a
// producer that then blocks on another queue of the same pipeline would
// deadlock it. Bulk transfers amortize the probe safely — see PushSlice.
func (p *Pusher[T]) Push(v T) {
	p.q.checkFailed()
	if fl := p.q.flow; fl != nil {
		fl.acquire(p.qv.vs.Frame, 1) // blocks on an exhausted bound (flow.go)
	}
	p.append1(v)
}

// append1 is the credit-free tail of a scalar push: segment attach/link
// plus the consumer wake probe. Callers have already settled the flow
// decision (blocking acquire, non-blocking TryPush, or a deadline), and
// nothing below can block, so a push is never torn by an unwind.
func (p *Pusher[T]) append1(v T) {
	qv := p.qv
	if !qv.vs.User.Valid {
		p.q.attachFreshSegment(qv)
	}
	seg := qv.vs.User.Tail
	if seg == nil {
		panic("hyperqueue: user view has non-local tail at push (internal invariant broken)")
	}
	if seg.full() {
		snew := p.q.pool.get(p.shard)
		seg.next.Store(snew) // tail ownership: only this task may link here
		qv.vs.User.Tail = snew
		seg = snew
	}
	seg.push(v)
	p.q.wakeConsumer()
}

// PushSlice appends every value of vs in order, crossing segment
// boundaries as needed: values are copied into the tail segment's
// contiguous free spans (contiguousWritable, §5.2) and published with
// one tail store per span, and the consumer wake-up probe runs once for
// the whole call instead of once per element. Pooled segments are
// linked when the tail fills, exactly as scalar pushes would.
//
// On a bounded queue the slice moves in credit-sized chunks: a call
// larger than the remaining budget — or than the whole bound — publishes
// what the budget allows, wakes the consumer so the chunk can drain, and
// blocks for more credits, so bulk producers make progress through any
// bound ≥ 1 instead of deadlocking on an all-or-nothing reservation.
func (p *Pusher[T]) PushSlice(vs []T) {
	if len(vs) == 0 {
		return
	}
	q, qv := p.q, p.qv
	q.checkFailed()
	for len(vs) > 0 {
		chunk := vs
		if fl := q.flow; fl != nil {
			n := fl.acquire(qv.vs.Frame, int64(len(vs)))
			chunk = vs[:n]
		}
		vs = vs[len(chunk):]
		for len(chunk) > 0 {
			if !qv.vs.User.Valid {
				q.attachFreshSegment(qv)
			}
			seg := qv.vs.User.Tail
			if seg == nil {
				panic("hyperqueue: user view has non-local tail at push (internal invariant broken)")
			}
			start, free := seg.contiguousWritable()
			if free == 0 { // zero contiguous free ⟺ segment full
				snew := q.pool.get(p.shard)
				seg.next.Store(snew)
				qv.vs.User.Tail = snew
				continue
			}
			take := min(int64(len(chunk)), free)
			copy(seg.buf[start:start+take], chunk[:take])
			seg.tail.Add(take) // release: publishes the whole span at once
			chunk = chunk[take:]
		}
		q.wakeConsumer()
	}
}

// Popper is a pop-privileged handle on a queue, bound to one task body
// by Queue.BindPop.
type Popper[T any] struct {
	q  *Queue[T]
	qv *qviews[T]
}

// BindPop resolves frame f's pop privilege on q once, acquires the
// consumer role (blocking, like a first Pop would, until every pop task
// f spawned so far on q has completed), and returns the bound handle.
// It panics, like Pop, if f holds no pop privilege.
func (q *Queue[T]) BindPop(f *sched.Frame) Popper[T] {
	qv := q.mustViews(f, ModePop)
	q.acquireConsumer(f, qv)
	return Popper[T]{q: q, qv: qv}
}

// ensure revalidates the consumer role: pop children spawned after the
// bind must complete before the binder's later pops (§2.3 rule 3). The
// steady-state cost is two atomic loads.
func (p *Popper[T]) ensure() {
	if p.qv.popServed.Load() != p.qv.popTickets.Load() {
		p.q.acquireConsumer(p.qv.vs.Frame, p.qv)
	}
}

// Empty is Queue.Empty through the binding: false as soon as a value is
// available, true only on permanent emptiness, blocking while undecided.
func (p *Popper[T]) Empty() bool {
	p.q.checkFailed()
	p.ensure()
	if p.q.reachableData() {
		return false
	}
	return p.q.emptyWait(p.qv.vs.Frame, p.qv)
}

// Pop is Queue.Pop through the binding: it removes and returns the head
// value, blocking while the head value has not yet been produced, and
// panics on a permanently empty queue. On a canceled scope a permanently
// empty answer (producers unwound early) raises the cancellation unwind
// instead of the programming-error panic.
func (p *Popper[T]) Pop() T {
	p.q.checkFailed()
	p.ensure()
	if !p.q.reachableData() && p.q.emptyWait(p.qv.vs.Frame, p.qv) {
		if sc := p.qv.vs.Frame.CancelScope(); sc.Canceled() {
			panic(sched.CancelUnwind{Err: sc.Err()})
		}
		panic("hyperqueue: pop on permanently empty queue")
	}
	v := p.q.headView.Head.pop()
	if fl := p.q.flow; fl != nil {
		fl.release(1) // credit the budget back; wakes blocked producers
	}
	return v
}

// TryPop is Queue.TryPop through the binding: the head value if one is
// immediately reachable (after folding any completed producers'
// deposited views), without blocking.
func (p *Popper[T]) TryPop() (T, bool) {
	p.ensure()
	if !p.q.tryReachable(p.qv.vs.Frame, p.qv) {
		var zero T
		return zero, false
	}
	v := p.q.headView.Head.pop()
	if fl := p.q.flow; fl != nil {
		fl.release(1)
	}
	return v, true
}

// PopInto fills dst with as many immediately-reachable values as fit,
// in serial program order, and reports how many were transferred. It is
// the bulk counterpart of TryPop: values are copied out of each segment's
// contiguous readable spans with one head advance per segment visited,
// crossing drained segments (and recycling them) exactly as repeated
// pops would, but paying the reachability probe once per segment instead
// of once per element. A zero return means no value is immediately
// available — use Empty to distinguish end-of-stream from a transient
// gap.
func (p *Popper[T]) PopInto(dst []T) int {
	p.ensure()
	return p.popInto(dst, true)
}

// popInto is PopInto after the role check. With fold unset a miss is
// decided by the chain walk alone, without tryReachable's locked frontier
// fold: for a caller that asks Empty next, which folds as it decides.
func (p *Popper[T]) popInto(dst []T, fold bool) int {
	q := p.q
	n := 0
	for n < len(dst) {
		if !q.reachableData() && !(fold && q.tryReachable(p.qv.vs.Frame, p.qv)) {
			break
		}
		s := q.headView.Head
		start, avail := s.contiguousReadable()
		take := min(int64(len(dst)-n), avail)
		copy(dst[n:], s.buf[start:start+take])
		clear(s.buf[start : start+take]) // drop references for the garbage collector
		s.head.Add(take)                 // release: frees the slots to the producer
		n += int(take)
	}
	if n > 0 {
		if fl := q.flow; fl != nil {
			fl.release(int64(n)) // one batched budget return per call
		}
	}
	return n
}

// batchCap is the most elements a batch loop (PopBatches; the Sharded
// router and merger) moves in one bulk transfer.
const batchCap = 256

// PopBatches is the consumer loop of every stage that moves elements in
// batches: until the queue is permanently empty it takes what the queue
// holds right now — one PopInto of up to min(256, limit) values, or 256
// when limit < 1; stages pass their queue's Bound — and hands the batch
// to fn. It never waits to fill a batch: it blocks only in Empty, holding
// nothing fn has not seen. The budget of a bounded queue is returned at
// the pop, before fn runs, so at most one batch beyond Bound is in
// flight, in fn's hands. The batch aliases one buffer allocated per call
// and is valid only until fn returns.
func (p *Popper[T]) PopBatches(limit int, fn func(batch []T)) {
	if limit < 1 || limit > batchCap {
		limit = batchCap
	}
	buf := make([]T, limit)
	for !p.Empty() {
		k := p.popInto(buf, false)
		fn(buf[:k])
		clear(buf[:k])
	}
}

// ReadSlice is Queue.ReadSlice through the binding: up to max
// already-produced values at the head, without copying, to be released
// with ConsumeRead.
func (p *Popper[T]) ReadSlice(max int) []T {
	p.ensure()
	if max < 1 || !p.q.tryReachable(p.qv.vs.Frame, p.qv) {
		return nil
	}
	s := p.q.headView.Head
	start, n := s.contiguousReadable()
	if n > int64(max) {
		n = int64(max)
	}
	return s.buf[start : start+n]
}

// ConsumeRead removes the first n values after a ReadSlice. The
// consumed span is contiguous by construction (ReadSlice returns a
// contiguousReadable prefix and the head cannot move in between), so
// the GC-clearing and the head advance are single span operations.
func (p *Popper[T]) ConsumeRead(n int) {
	p.ensure()
	s := p.q.headView.Head
	if int64(n) > s.size() {
		panic("hyperqueue: ConsumeRead past the end of the read slice")
	}
	start, _ := s.contiguousReadable()
	clear(s.buf[start : start+int64(n)]) // drop references for the garbage collector
	s.head.Add(int64(n))
	if n > 0 {
		if fl := p.q.flow; fl != nil {
			fl.release(int64(n))
		}
	}
}

// reserve settles the flow decision for up to want scalar pushes at
// once: it blocks, like Push, until the bound grants at least one credit,
// takes and meters as many as it grants (want whole on an unbounded
// queue) and returns that count. The caller then publishes exactly that
// many values through append1, one at a time — the shard workers' split
// of a push into batched accounting and eager publication (shard.go);
// the poison check stays with the caller, per value. Reserved credits
// count as occupancy until the values are popped.
func (p *Pusher[T]) reserve(want int) int {
	if fl := p.q.flow; fl != nil {
		return int(fl.acquire(p.qv.vs.Frame, int64(want)))
	}
	return want
}
