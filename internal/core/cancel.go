package core

import (
	"errors"
	"time"

	"repro/internal/sched"
)

// Queue poisoning and deadline/shed variants — the fault-tolerant
// teardown surface. The paper's hyperqueues assume runs that complete;
// a streaming service also needs runs that don't. Three mechanisms
// compose here:
//
//   - Cancellation (internal/sched cancel.go): every park site of the
//     queue — Empty/Pop waits, consumer-role waits, pop-ticket gates,
//     budget parks — registers the queue (or its flow state) as the
//     frame's waker through Frame.Park and checks the frame's cancel
//     scope under the same mutex WakeParked broadcasts under, so parked
//     tasks of a canceled run wake promptly and unwind with
//     sched.CancelUnwind.
//   - Poisoning (Queue.Fail): a failed queue wakes all parked producers
//     and consumers with the failure and makes subsequent operations
//     unwind with sched.AbortUnwind, which cancels the run's scope with
//     the failure as cause — Run returns it instead of deadlocking.
//   - Deadlines/shedding (TryPush, PushTimeout, PopTimeout): overload
//     decisions as return values instead of unwinds, for callers that
//     want to shed or retry. The non-fired path allocates nothing: the
//     timer is created only if the operation actually parks.
//
// None of these bypass the view algebra: an unwound task still runs its
// completion protocol (deposits, sync folds, ticket advances), so the
// §4.4 invariants and the segment-pool accounting identity hold across
// an abort — the soak fuzzer audits exactly this.

// ErrTimeout is returned by PushTimeout and PopTimeout when the deadline
// fires before the operation can complete.
var ErrTimeout = errors.New("hyperqueue: deadline exceeded")

// ErrEmpty is returned by PopTimeout when the queue is permanently empty
// for the calling task (the condition under which Pop would panic).
var ErrEmpty = errors.New("hyperqueue: queue permanently empty")

// ErrQueueFailed is the default Fail cause when nil is supplied.
var ErrQueueFailed = errors.New("hyperqueue: queue failed")

// failCell is the immutable failure record shared by the queue and its
// flow state; a nil pointer is the (hot-path) healthy state.
type failCell struct{ err error }

// Fail poisons the queue with err (nil means ErrQueueFailed): producers
// parked on credits and consumers parked in Empty/Pop or on tickets wake
// immediately, and subsequent blocking operations unwind with the error
// instead of deadlocking — the error cancels the affected run's scope,
// so Run returns it. The first failure wins; later calls are no-ops.
// Fail does not drop data already in the queue (non-blocking reads still
// drain it) and does not unbalance the view algebra: unwound tasks still
// deposit their views, so pool accounting stays intact. Any goroutine
// may call Fail, with no privileges on the queue.
func (q *Queue[T]) Fail(err error) {
	if err == nil {
		err = ErrQueueFailed
	}
	if !q.failed.CompareAndSwap(nil, &failCell{err: err}) {
		return
	}
	q.WakeParked()
	if fl := q.flow; fl != nil {
		fl.WakeParked()
	}
}

// FailErr reports the queue's poison cause, or nil while healthy.
func (q *Queue[T]) FailErr() error { return q.failErr() }

func (q *Queue[T]) failErr() error {
	if fc := q.failed.Load(); fc != nil {
		return fc.err
	}
	return nil
}

// checkFailed unwinds the calling task if the queue has been poisoned.
// One atomic load of a nil pointer on the healthy path.
func (q *Queue[T]) checkFailed() {
	if fc := q.failed.Load(); fc != nil {
		panic(sched.AbortUnwind{Err: fc.err})
	}
}

// WakeParked is the consumer-side cancellation waker (sched.Waker): a
// canceled scope calls it to flush every sleeper on the consumer cond so
// they re-check their predicates.
func (q *Queue[T]) WakeParked() {
	q.lockCons()
	q.cond.Broadcast()
	q.consMu.Unlock()
}

// raiseStop converts a park-site stop cause into the matching unwind:
// the queue's own poison aborts, everything else is a cancellation.
func raiseStop(poison, stop error) {
	if poison != nil && poison == stop {
		panic(sched.AbortUnwind{Err: stop})
	}
	panic(sched.CancelUnwind{Err: stop})
}

func (q *Queue[T]) raiseStop(stop error) { raiseStop(q.failErr(), stop) }

// TryPush appends v if the queue's budget admits it right now and
// reports whether it did; a false return is a shed decision — counted in
// the queue's Sheds meter — and the caller drops or redirects the value.
// On an unbounded queue TryPush always succeeds. It never blocks and
// allocates nothing on either path.
func (p *Pusher[T]) TryPush(v T) bool {
	q := p.q
	q.checkFailed()
	if fl := q.flow; fl != nil && fl.grant(1) == 0 {
		fl.sheds.Add(1)
		return false
	}
	p.append1(v)
	return true
}

// PushTimeout appends v, waiting at most d for budget. It returns nil on
// success; ErrTimeout — counted as a shed — when the deadline fires
// first; the queue's poison cause after a Fail; or the scope's
// cancellation cause. The fast path (budget available) is identical to
// Push and allocates nothing; the deadline timer exists only while the
// producer is actually parked.
func (p *Pusher[T]) PushTimeout(v T, d time.Duration) error {
	q := p.q
	if err := q.failErr(); err != nil {
		return err
	}
	if fl := q.flow; fl != nil {
		var deadline time.Time
		for fl.grant(1) == 0 {
			if deadline.IsZero() {
				deadline = time.Now().Add(d)
			}
			if err := fl.awaitBudget(p.qv.vs.Frame, deadline); err != nil {
				if err == ErrTimeout {
					fl.sheds.Add(1)
				}
				return err
			}
		}
	}
	p.append1(v)
	return nil
}

// PopTimeout removes and returns the head value, waiting at most d for
// one to be produced. It returns ErrTimeout when the deadline fires
// while the answer is still undecided, ErrEmpty on permanent emptiness
// (where Pop would panic), the queue's poison cause after a Fail, or the
// scope's cancellation cause — as return values, not unwinds, so a
// draining loop can decide for itself when to stop. The fast path (data
// reachable) is identical to Pop and allocates nothing.
func (p *Popper[T]) PopTimeout(d time.Duration) (T, error) {
	var zero T
	q := p.q
	if err := q.failErr(); err != nil {
		return zero, err
	}
	f := p.qv.vs.Frame
	if sc := f.CancelScope(); sc.Canceled() {
		return zero, sc.Err()
	}
	p.ensure()
	if !q.reachableData() {
		empty, stop := q.emptyWaitStop(f, p.qv, time.Now().Add(d))
		if stop != nil {
			return zero, stop
		}
		if empty {
			return zero, ErrEmpty
		}
	}
	v := q.headView.Head.pop()
	if fl := q.flow; fl != nil {
		fl.release(1)
	}
	return v, nil
}

// failedErr is the flow-side view of the owning queue's poison cell,
// checked by the budget-park predicates.
func (fl *flowState) failedErr() error {
	if fc := fl.failedp.Load(); fc != nil {
		return fc.err
	}
	return nil
}
