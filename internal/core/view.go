package core

import "repro/internal/core/hyper"

// view is the queue's instantiation of the substrate's paired chain
// view (§3.3): hyper.View over *segment[T]. The pairing/reduction
// discipline itself — split, reduce, the non-local pair ids and their
// assertions — lives in internal/core/hyper (pair.go), shared with
// every other hyperobject; this file keeps the queue-specific glue and
// diagnostics.
type view[T any] = hyper.View[*segment[T]]

// qviewOps is the queue's Ops instantiation, used by the queue's
// engine.
type qviewOps[T any] = hyper.PairOps[*segment[T]]

// emptyView returns ε.
func emptyView[T any]() view[T] { return view[T]{} }

// split implements split((s,s)) = ((s, pNL), (pNL, s)) (§3.3); see
// hyper.Split.
func split[T any](s *segment[T], pairID uint64) (headOnly, tailOnly view[T]) {
	return hyper.Split(s, pairID)
}

// viewHasData reports whether any segment of the view's chain holds a
// value. It is a diagnostic helper for the invariant checker, not a
// hot-path primitive: a view with a non-local head cannot be walked
// from its start, so only its tail segment is inspected in that case.
func viewHasData[T any](v *view[T]) bool {
	if !v.Valid {
		return false
	}
	if v.Head == nil {
		return v.Tail != nil && v.Tail.size() > 0
	}
	for s := v.Head; s != nil; s = s.next.Load() {
		if s.size() > 0 {
			return true
		}
		if s == v.Tail {
			break
		}
	}
	return false
}
