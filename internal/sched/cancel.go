package sched

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Cooperative cancellation. A cancel scope is attached to every Run (and,
// through ScopedCall, to subtrees of a Run): tasks of the scope observe
// cancellation at their blocking points — dep gates, queue Empty/Pop
// waits, credit parks, consumer-role waits — and unwind promptly instead
// of parking forever, while the task-tree bookkeeping (dep completions,
// view deposits, sync folds, live-child accounting) still runs for every
// task, so the hyperqueue invariants and the segment-pool identity
// survive the abort. See ARCHITECTURE.md, "Cancellation & teardown".
//
// The model is cooperative in the same sense as context.Context: a task
// body that never blocks runs to completion. What the scope guarantees is
// that no task of a canceled run *waits* — parked tasks wake with the
// cancellation error, and tasks not yet started skip their dep gates and
// body entirely (their completion protocol still runs, so parents sync
// and views fold as if the body were empty).

// ErrCanceled is the error a canceled Run returns when no more specific
// cause was supplied to Cancel.
var ErrCanceled = errors.New("swan: canceled")

// CancelScope is the cancellation domain of one Run (or of one
// ScopedCall subtree). It is safe for concurrent use; the zero of the
// methods on a nil *CancelScope report "never canceled", so frames
// created outside a Run degrade gracefully.
type CancelScope struct {
	parent *CancelScope

	// canceled is the lock-free fast-path flag park sites load before
	// touching mu.
	canceled atomic.Bool

	mu       sync.Mutex
	err      error                     // first cancellation cause; nil while live
	panicVal any                       // first real task panic of the scope
	parked   *Frame                    // frames inside Park, linked through Frame.parkNext/parkPrev
	children map[*CancelScope]struct{} // live ScopedCall sub-scopes
}

// Waker is what a park site hands to Frame.Park: WakeParked must make the
// parked task re-check its predicate (the queue sites broadcast the
// condition variable they wait on). The runtime calls it at most once per
// Park, from the canceling goroutine, possibly after the task has already
// left the park — a late call must be harmless. Park sites pass a pointer
// they already hold (the queue, its flow state), so registering costs no
// allocation.
type Waker interface {
	WakeParked()
}

// newCancelScope creates a scope under parent (nil for a Run root). A
// child of an already-canceled parent is born canceled with the same
// cause.
func newCancelScope(parent *CancelScope) *CancelScope {
	s := &CancelScope{parent: parent}
	if parent != nil {
		parent.mu.Lock()
		if parent.err != nil {
			s.err = parent.err
			s.canceled.Store(true)
			parent.mu.Unlock()
			return s
		}
		if parent.children == nil {
			parent.children = make(map[*CancelScope]struct{})
		}
		parent.children[s] = struct{}{}
		parent.mu.Unlock()
	}
	return s
}

// detach removes a completed sub-scope from its parent so the parent's
// child set does not grow across many ScopedCalls.
func (s *CancelScope) detach() {
	if s == nil || s.parent == nil {
		return
	}
	p := s.parent
	p.mu.Lock()
	delete(p.children, s)
	p.mu.Unlock()
}

// Cancel cancels the scope with the given cause (nil means ErrCanceled):
// the first call wins, registered park-site wakers fire exactly once, and
// live sub-scopes are canceled with the same cause. Cancel is
// asynchronous — it returns without waiting for the scope's tasks to
// quiesce; Run (or ScopedCall) is what observes the quiesced tree.
func (s *CancelScope) Cancel(err error) {
	if s == nil {
		return
	}
	if err == nil {
		err = ErrCanceled
	}
	s.mu.Lock()
	if s.err != nil {
		s.mu.Unlock()
		return
	}
	s.err = err
	s.canceled.Store(true)
	var wakers []Waker
	for f := s.parked; f != nil; {
		wakers = append(wakers, f.waker)
		next := f.parkNext
		f.waker, f.parkNext, f.parkPrev = nil, nil, nil
		f = next
	}
	s.parked = nil
	children := s.children
	s.children = nil
	s.mu.Unlock()
	for _, w := range wakers {
		w.WakeParked()
	}
	for c := range children {
		c.Cancel(err)
	}
}

// Canceled reports whether the scope has been canceled. One atomic load;
// this is the probe park-site predicates use.
func (s *CancelScope) Canceled() bool { return s != nil && s.canceled.Load() }

// Err returns the cancellation cause, or nil while the scope is live.
func (s *CancelScope) Err() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Park is Block for a wait that a cancellation must be able to interrupt:
// w is registered with the frame's scope for the duration of wait, and a
// Cancel of the scope (or of an enclosing one) calls w.WakeParked once so
// the sleeper re-checks its predicate — which must include the scope's
// Canceled. If the scope is already canceled, w fires immediately and
// nothing is registered. The registration is a slot in the frame's own
// record on an intrusive list of the scope, so a park allocates nothing.
func (f *Frame) Park(w Waker, wait func()) {
	if s := f.scope; s != nil {
		s.mu.Lock()
		if s.err != nil {
			s.mu.Unlock()
			w.WakeParked()
		} else {
			f.waker, f.parkNext = w, s.parked
			if s.parked != nil {
				s.parked.parkPrev = f
			}
			s.parked = f
			s.mu.Unlock()
			defer s.unpark(f)
		}
	}
	f.Block(wait)
}

// unpark removes f from the scope's parked list, unless a Cancel already
// emptied the list.
func (s *CancelScope) unpark(f *Frame) {
	s.mu.Lock()
	if f.waker != nil {
		if f.parkPrev != nil {
			f.parkPrev.parkNext = f.parkNext
		} else {
			s.parked = f.parkNext
		}
		if f.parkNext != nil {
			f.parkNext.parkPrev = f.parkPrev
		}
		f.waker, f.parkNext, f.parkPrev = nil, nil, nil
	}
	s.mu.Unlock()
}

// recordPanic stores the first real task panic of the scope and cancels
// it, so siblings of a panicking task stop at their next blocking point
// instead of running the doomed pipeline to completion. Run re-raises
// the stored value after the tree quiesces; ScopedCall converts it to a
// PanicError.
func (s *CancelScope) recordPanic(v any) {
	if s == nil {
		// A frame with no scope (defensive; unreachable through Run).
		panic(v)
	}
	s.mu.Lock()
	if s.panicVal == nil {
		s.panicVal = v
	}
	s.mu.Unlock()
	s.Cancel(&PanicError{Value: v})
}

// PanicError is the cancellation cause recorded when a task panic (rather
// than an explicit Cancel or a queue Fail) cancels a scope. Run re-raises
// the original panic value; ScopedCall returns the PanicError.
type PanicError struct{ Value any }

func (e *PanicError) Error() string { return fmt.Sprintf("swan: task panicked: %v", e.Value) }

// CancelUnwind is the panic value a blocking runtime operation raises to
// unwind its task after observing that the task's scope was canceled. The
// substrate absorbs it — it is never recorded as a task panic and never
// re-raised by Run; the scope's error (already set) is what Run returns.
// Client code must not swallow it: a recover that sees a CancelUnwind
// must re-panic it.
type CancelUnwind struct{ Err error }

// AbortUnwind is the panic value a queue operation raises after the queue
// was poisoned with Fail. The substrate absorbs it and cancels the task's
// scope with Err, so the whole Run unwinds and returns the failure.
// Client code must not swallow it.
type AbortUnwind struct{ Err error }

// absorbTaskPanic classifies a value recovered from a task body or dep
// gate: sentinel unwinds cancel the scope (keeping the first cause) and
// are not task panics; anything else is a real panic — counted, recorded
// first-wins on the scope, and the scope is canceled so siblings stop.
func (f *Frame) absorbTaskPanic(r any) {
	switch p := r.(type) {
	case CancelUnwind:
		f.scope.Cancel(p.Err)
	case AbortUnwind:
		f.scope.Cancel(p.Err)
	default:
		f.rt.taskPanics.Add(1)
		f.scope.recordPanic(r)
	}
}

// recoverTask is deferred around task code (dep gates, bodies): it
// absorbs whatever the code panicked with.
func (f *Frame) recoverTask() {
	if r := recover(); r != nil {
		f.absorbTaskPanic(r)
	}
}

// CancelScope returns the frame's cancel scope: the Run scope, or the
// nearest enclosing ScopedCall sub-scope. It never returns nil for a
// frame created by Run, and the methods of a nil scope are safe no-ops,
// so callers need not check.
func (f *Frame) CancelScope() *CancelScope { return f.scope }

// Cancel cancels every Run currently in flight on the runtime with the
// given cause (nil means ErrCanceled) and marks the runtime so future
// Runs are born canceled. It is the shutdown path — a SIGINT handler
// cancels the runtime, in-flight Runs quiesce in bounded time and return
// the cause, and the process can collect final stats. For canceling one
// pipeline without condemning the runtime, use Frame.CancelScope (inside
// the run) or ScopedCall (for a subtree).
func (rt *Runtime) Cancel(err error) {
	if err == nil {
		err = ErrCanceled
	}
	rt.cancelMu.Lock()
	if rt.rtErr == nil {
		rt.rtErr = err
	}
	scopes := make([]*CancelScope, 0, len(rt.scopes))
	for s := range rt.scopes {
		scopes = append(scopes, s)
	}
	rt.cancelMu.Unlock()
	for _, s := range scopes {
		s.Cancel(err)
	}
}

// beginRun creates and registers the cancel scope of one Run. A Run
// started after Runtime.Cancel is born canceled: its root body is
// skipped and it returns the runtime's cancellation cause.
func (rt *Runtime) beginRun() *CancelScope {
	s := newCancelScope(nil)
	rt.cancelMu.Lock()
	if rt.scopes == nil {
		rt.scopes = make(map[*CancelScope]struct{})
	}
	rt.scopes[s] = struct{}{}
	if rt.rtErr != nil {
		s.err = rt.rtErr
		s.canceled.Store(true)
	}
	rt.cancelMu.Unlock()
	return s
}

// endRun unregisters a Run's scope after the tree has quiesced and
// resolves its outcome: a recorded real panic is re-raised (preserving
// the pre-cancellation contract), a cancellation is returned as the
// Run's error, and a clean run returns nil.
func (rt *Runtime) endRun(s *CancelScope) error {
	rt.cancelMu.Lock()
	delete(rt.scopes, s)
	rt.cancelMu.Unlock()
	s.mu.Lock()
	v, err := s.panicVal, s.err
	s.mu.Unlock()
	if v != nil {
		rt.canceledRuns.Add(1)
		panic(v)
	}
	if err != nil {
		rt.canceledRuns.Add(1)
		return err
	}
	return nil
}

// ScopedCall runs fn as a child frame under a fresh cancel sub-scope and
// waits for the subtree to complete, returning the sub-scope's outcome:
// nil on clean completion, the cancellation cause if fn's subtree was
// canceled (fn may cancel its own scope via CancelScope), or a PanicError
// if a task of the subtree panicked. Cancellation and panics inside the
// subtree are contained — the caller's scope is unaffected — while a
// cancellation of the caller's scope propagates down into the sub-scope.
// It is the building block for pipelines that must be individually
// abortable inside a long-lived Run (one connection's pipeline inside a
// server, one chaos-killed pipeline inside the soak fuzzer).
func (f *Frame) ScopedCall(fn func(*Frame), deps ...Dep) error {
	child := newCancelScope(f.scope)
	defer child.detach()
	f.Call(func(c *Frame) {
		c.scope = child
		if child.Canceled() {
			return
		}
		defer func() {
			if r := recover(); r != nil {
				c.absorbTaskPanic(r)
			}
		}()
		fn(c)
	}, deps...)
	child.mu.Lock()
	v, err := child.panicVal, child.err
	child.mu.Unlock()
	if v != nil {
		return &PanicError{Value: v}
	}
	return err
}
