package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/core/hyper"
	"repro/internal/sched"
)

// This file implements a checker for the hyperqueue invariants of §4.4.
// It is not used on any hot path; tests call CheckInvariants at quiescent
// points (under q.mu) to validate the view algebra's global state. In
// addition, with SetDebugChecks enabled, every permanent-emptiness
// decision asserts that no valid view ordered before the consumer still
// holds data (assertNoHiddenDataLocked) — the serializability property
// that quickcheck seed 139 showed can silently break when deposits are
// not folded into the queue view.

// debugChecks gates the runtime self-checking assertions (currently the
// no-hidden-data-on-Empty check). Off by default: the checks walk the
// live view tree on every permanent-emptiness decision, which is cheap
// but not free. The core test suite, the regression tests and
// cmd/quickcheck enable it.
var debugChecks atomic.Bool

// SetDebugChecks enables or disables the hyperqueue's runtime
// self-checking assertions for all queues in the process. A violated
// assertion panics, which the runtime surfaces through Run.
func SetDebugChecks(on bool) { debugChecks.Store(on) }

// checkNoHiddenDataLocked validates the contract of a true Empty
// answer: at the moment permanent emptiness is declared for consumer qv,
// no valid view ordered before the consumer's position may hold data.
// After linkFrontier the children views along the consumer's spawn path
// and the consumer's own user view must be empty, and no live
// view-holding task may precede the consumer at all (pop tasks have
// completed by consumer serialization; push tasks would have made
// visibleProducerLive true). Caller holds q.consMu and q.regMu; the
// violation (empty string if none) is returned rather than panicked so
// the caller can raise it after releasing the locks — a panic under a
// queue lock would deadlock the rest of the task tree instead of
// surfacing the report.
func (q *Queue[T]) checkNoHiddenDataLocked(qv *qviews[T]) string {
	cf := qv.vs.Frame
	target := &qv.vs
	var walk func(n *hyper.ViewSet[view[T]]) string
	walk = func(n *hyper.ViewSet[view[T]]) string {
		switch {
		case n == target:
			if viewHasData(&n.Children) || viewHasData(&n.User) {
				return "hyperqueue: Empty returned true while the consumer's own views hold data (frontier fold incomplete)"
			}
		case n.Frame.IsAncestorOf(cf):
			if viewHasData(&n.Children) {
				return "hyperqueue: Empty returned true while an ancestor's children view holds data (frontier fold incomplete)"
			}
		case cf.IsAncestorOf(n.Frame):
			return "hyperqueue: live descendant holds queue views while the consumer declared permanent emptiness"
		case n.Frame.Before(cf):
			if viewHasData(&n.Children) || viewHasData(&n.User) || viewHasData(&n.Right) {
				return "hyperqueue: task ordered before the consumer is live with data at a permanent-emptiness decision"
			}
		}
		for c := n.ChildHead; c != nil; c = c.Next {
			if v := walk(c); v != "" {
				return v
			}
		}
		return ""
	}
	return walk(&q.ownerQV.vs)
}

// InvariantViolation describes one violated invariant.
type InvariantViolation struct {
	Invariant int
	Detail    string
}

func (v InvariantViolation) String() string {
	return fmt.Sprintf("invariant %d violated: %s", v.Invariant, v.Detail)
}

// CheckInvariants validates the §4.4 invariants that are checkable from
// the queue's structural state, returning all violations found. It must
// be called from the owner frame's goroutine with no concurrently
// running tasks on the queue (a quiescent point such as after Sync).
func (q *Queue[T]) CheckInvariants(f *sched.Frame) []InvariantViolation {
	q.lockCons()
	defer q.consMu.Unlock()
	q.lockReg()
	defer q.unlockReg()
	var out []InvariantViolation
	report := func(inv int, format string, args ...any) {
		out = append(out, InvariantViolation{inv, fmt.Sprintf(format, args...)})
	}

	// Invariant 1: every hyperqueue holds at least one segment; the
	// queue view's head pointer is local (invariant 2 gives uniqueness).
	if !q.headView.Valid || q.headView.Head == nil {
		report(1, "queue view has no local head segment: %s", q.headView.String())
		return out
	}

	// Invariant 3: the tail pointer of the queue view is non-local.
	if q.headView.Tail != nil {
		report(3, "queue view has a local tail: %s", q.headView.String())
	}

	// Collect all views reachable from the owner at quiescence: with no
	// live tasks, only the owner's views exist.
	qv := q.ownerQV
	views := map[string]*view[T]{
		"owner.children": &qv.vs.Children,
		"owner.user":     &qv.vs.User,
		"owner.right":    &qv.vs.Right,
	}

	// Invariant 3 (second half): the user view's head is non-local
	// unless the view is empty.
	if qv.vs.User.Valid && qv.vs.User.Head != nil {
		report(3, "owner user view has a local head: %s", qv.vs.User.String())
	}

	// Walk the segment chain from the queue head; every segment must be
	// reachable exactly once (invariant 4: one next pointer or one view
	// head pointer per segment).
	seen := map[*segment[T]]string{}
	for s, i := q.headView.Head, 0; s != nil; s = s.next.Load() {
		if prev, dup := seen[s]; dup {
			report(4, "segment reached twice (%s and chain position %d)", prev, i)
			break
		}
		seen[s] = fmt.Sprintf("chain[%d]", i)
		i++
	}

	// Invariant 5: a view's tail pointer, when local, must point to a
	// segment whose next pointer is nil (the open tail).
	for name, v := range views {
		if v.Valid && v.Tail != nil && v.Tail.next.Load() != nil {
			report(5, "%s tail points to a segment with a next link", name)
		}
	}

	// Pair discipline: at quiescence, the queue view's non-local tail
	// must pair with the owner user view's non-local head (they were
	// created by the same split at construction or restored by
	// reductions). An ε user view means all data has been folded and the
	// pair is closed by children — which must then also be ε or paired.
	if qv.vs.User.Valid && qv.vs.User.Head == nil {
		if qv.vs.Children.Valid {
			// children precedes user: children.tail pairs with user.head.
			if qv.vs.Children.Tail == nil && qv.vs.Children.TailNL != qv.vs.User.HeadNL {
				report(7, "children/user non-local pair mismatch: %d vs %d",
					qv.vs.Children.TailNL, qv.vs.User.HeadNL)
			}
		} else if q.headView.TailNL != qv.vs.User.HeadNL {
			report(7, "queue/user non-local pair mismatch: %d vs %d",
				q.headView.TailNL, qv.vs.User.HeadNL)
		}
	}

	// All data linked: at quiescence every produced segment must be
	// reachable from the head chain (invariant 4's consequence). The
	// owner views' local pointers must land inside the chain.
	for name, v := range views {
		if !v.Valid {
			continue
		}
		if v.Head != nil {
			if _, ok := seen[v.Head]; !ok {
				report(4, "%s head segment not reachable from queue head", name)
			}
		}
		if v.Tail != nil {
			if _, ok := seen[v.Tail]; !ok {
				report(4, "%s tail segment not reachable from queue head", name)
			}
		}
	}
	return out
}

// MustCheckInvariants panics on the first violation; a convenience for
// tests.
func (q *Queue[T]) MustCheckInvariants(f *sched.Frame) {
	if v := q.CheckInvariants(f); len(v) > 0 {
		panic("hyperqueue: " + v[0].String())
	}
}

// DebugChainSegments folds the serial frontier and reports how many
// segments the queue currently holds in its head chain. It is the live
// term of the pool-audit balance (see the PoolProvider.SegmentAllocs
// comment): at a quiescent point every segment a queue owns is reachable
// from the head chain once the frontier views are folded in, so
//
//	SegmentAllocs == PooledSegments + DroppedSegments
//	                 + Σ DebugChainSegments(live queues)
//	                 + segments abandoned with dead queues
//
// holds exactly. Like Recycle, it may only be called by the owning frame
// at a quiescent point — every task ever granted privileges on the queue
// has completed (CanRecycle's condition, except the queue need not be
// drained) — and panics otherwise. The frontier fold mutates view
// bookkeeping the same way the consumer's own emptiness decision would;
// it never drops or reorders data.
func (q *Queue[T]) DebugChainSegments(f *sched.Frame) uint64 {
	qv := q.mustViews(f, ModePushPop)
	if qv.parentQV != nil {
		panic("hyperqueue: only the owning task may count chain segments")
	}
	q.lockCons()
	q.lockReg()
	defer func() {
		q.unlockReg()
		q.consMu.Unlock()
	}()
	if len(q.producers) > 0 || qv.vs.ChildHead != nil ||
		qv.popServed.Load() != qv.popTickets.Load() {
		panic("hyperqueue: DebugChainSegments on a non-quiescent queue")
	}
	q.linkFrontier(qv)
	var n uint64
	for s := q.headView.Head; s != nil; s = s.next.Load() {
		n++
	}
	return n
}
