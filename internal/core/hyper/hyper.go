// Package hyper is the generic versioned-object substrate underneath
// the hyperqueue: the Swan-lineage view algebra of Vandierendonck,
// Pratikakis and Nikolopoulos (PACT 2011), factored out of the queue so
// that other hyperobjects — deterministic reducers, first-writer-wins
// keyed maps — can reuse the same discipline.
//
// A hyperobject gives every task a private *view* of the object. Views
// are values of some type V with a designated empty value ε (the Go
// zero value of V) and a *reduction*: an associative fold that merges
// the view of a task into the view of the task immediately preceding it
// in the serial elision of the program. Because views only ever merge
// along serial program order — at spawn (the user view moves to the
// child), at task completion (the child's views deposit into its
// nearest live elder sibling or its parent) and at sync (the children
// view folds into the user view) — the final folded value is the one
// the serial execution would have produced, for any schedule and any
// worker count.
//
// The substrate has three layers:
//
//   - Ops[V] is the reduction interface a view type implements.
//     View/PairOps (pair.go) implement it for the queue's (head, tail)
//     segment-chain views; the reducer and hypermap objects in package
//     core implement it for monoid values and keyed maps.
//   - ViewSet[V] and Engine[V, O] hold the per-task view bookkeeping —
//     user/children/right views plus the live-sibling chain — and the
//     structural folds (link, hand-off, deposit, sync fold, frontier
//     fold, head sharing). The engine is lock-agnostic: the caller
//     serializes calls, which lets the queue keep its split
//     consMu/regMu locking.
//   - Obj[V, O] (object.go) is a self-locking hyperobject base for
//     objects that do not need the queue's custom locking: it owns a
//     mutex, the owner view set, the frame attachment and sync hooks,
//     and a ready-made write dependence.
package hyper

import "repro/internal/sched"

// Ops is the reduction discipline of a view type V. The empty view ε is
// the zero value of V.
type Ops[V any] interface {
	// Reduce implements reduce(v1, v2): it folds *from into *into in
	// serial program order (into precedes from) and leaves *from = ε.
	// Reducing from ε must be a no-op, and reducing into ε must move
	// *from into *into.
	Reduce(into, from *V)
	// Valid reports whether v is a non-ε view.
	Valid(v *V) bool
}

// ViewSet is the per-(task, hyperobject) view record of §4 of the SC13
// paper: the task's user, children and right views, plus the links that
// tie it into the object's program-order structures.
//
// Locking: User is private to the frame's goroutine except where the
// object's own discipline says otherwise (the queue lets a
// Complete-side frontier fold touch a parked consumer's user view under
// its consumer lock). Children and Right are shared — siblings deposit
// into them — and are guarded by whatever lock serializes the owning
// object's Engine calls, as are the sibling links.
type ViewSet[V any] struct {
	// Frame identifies the task holding this view set. It is set once
	// before the view set is published and read for program-order
	// comparisons and diagnostics.
	Frame *sched.Frame

	User     V
	Children V
	Right    V

	// Live-sibling chain among children (holding views on the same
	// object) of the same parent, in program order.
	Parent     *ViewSet[V]
	Prev, Next *ViewSet[V]
	ChildHead  *ViewSet[V]
	ChildTail  *ViewSet[V]
}

// Engine performs the structural folds of the view algebra over
// ViewSets. It is parameterized by the concrete Ops implementation (not
// the interface) so every Reduce call dispatches statically and inlines.
//
// The engine takes no locks: all calls that touch shared view-set state
// (everything except HandOff) must be serialized by the owning object.
// Merges counts effective reductions (non-ε source) under that same
// serialization.
type Engine[V any, O Ops[V]] struct {
	Ops O
	// Merges counts reductions whose source view was non-ε — the folds
	// that actually carried data across a task boundary. Guarded by the
	// owning object's lock.
	Merges uint64
}

// Reduce folds *from into *into, counting the merge if it moved data.
func (e *Engine[V, O]) Reduce(into, from *V) {
	if e.Ops.Valid(from) {
		e.Merges++
	}
	e.Ops.Reduce(into, from)
}

// HandOff implements the spawn-time user-view move (§4.2, "Spawn"): the
// parent's user view becomes the child's, and the parent is left with
// ε. Both user views are private to the parent's goroutine at spawn
// time, so HandOff needs no lock.
func (e *Engine[V, O]) HandOff(parent, child *ViewSet[V]) {
	var zero V
	child.User = parent.User
	parent.User = zero
}

// Link splices child in as the youngest live sibling of parent's
// children on this object. Caller holds the object's lock.
func (e *Engine[V, O]) Link(parent, child *ViewSet[V]) {
	child.Parent = parent
	child.Prev = parent.ChildTail
	if parent.ChildTail != nil {
		parent.ChildTail.Next = child
	} else {
		parent.ChildHead = child
	}
	parent.ChildTail = child
}

// SyncFold folds the children view into the user view at a sync point
// (§4.2, "Sync"): user ← reduce(children, user). Caller holds the
// object's lock.
func (e *Engine[V, O]) SyncFold(vs *ViewSet[V]) {
	e.Reduce(&vs.Children, &vs.User)
	vs.Children, vs.User = vs.User, vs.Children // result belongs in user; children becomes ε
}

// Retire implements task completion (§4.2, "Return from spawn"): the
// task's user and right views fold into its nearest live elder
// sibling's right view — or its parent's children view — and the view
// set leaves the live-sibling chain. Caller holds the object's lock.
func (e *Engine[V, O]) Retire(vs *ViewSet[V]) {
	e.Reduce(&vs.User, &vs.Right)
	if s := vs.Prev; s != nil {
		e.Reduce(&s.Right, &vs.User)
	} else {
		e.Reduce(&vs.Parent.Children, &vs.User)
	}
	// Unlink from the live-sibling chain.
	if vs.Prev != nil {
		vs.Prev.Next = vs.Next
	} else {
		vs.Parent.ChildHead = vs.Next
	}
	if vs.Next != nil {
		vs.Next.Prev = vs.Prev
	} else {
		vs.Parent.ChildTail = vs.Prev
	}
}

// ShareToPredecessor deposits *tmp into the nearest preceding live view
// in program order (§4.1): the task's youngest live child's right view,
// else its own children view, else — climbing the spawn tree — the
// nearest live elder sibling's right view or an ancestor's children
// view, ending at the root's children view. Caller holds the object's
// lock.
func (e *Engine[V, O]) ShareToPredecessor(vs *ViewSet[V], tmp *V) {
	if yc := vs.ChildTail; yc != nil {
		e.Reduce(&yc.Right, tmp)
		return
	}
	if e.Ops.Valid(&vs.Children) {
		e.Reduce(&vs.Children, tmp)
		return
	}
	cur := vs
	for cur.Parent != nil {
		if s := cur.Prev; s != nil {
			e.Reduce(&s.Right, tmp)
			return
		}
		p := cur.Parent
		if e.Ops.Valid(&p.Children) {
			e.Reduce(&p.Children, tmp)
			return
		}
		cur = p
	}
	// Root (object owner): merge with its children view (§4.1).
	e.Reduce(&cur.Children, tmp)
}

// FoldFrontier folds every view ordered before vs's current position
// into *into: the children views along vs's spawn path in root-to-leaf
// order, then vs's own user view. This is the serial frontier fold the
// queue's linkFrontier builds on (§4.5 "double reduction"); the caller
// is responsible for the precondition that every task ordered before vs
// has completed and deposited, and for any object-specific
// post-processing (the queue re-splits an open local tail). Caller
// holds the object's lock.
func (e *Engine[V, O]) FoldFrontier(vs *ViewSet[V], into *V) {
	// The spawn path is almost always shallow; a small stack buffer
	// keeps the fold allocation-free on churn-heavy hot loops.
	var pathBuf [16]*ViewSet[V]
	path := pathBuf[:0]
	for p := vs; p != nil; p = p.Parent {
		path = append(path, p)
	}
	for i := len(path) - 1; i >= 0; i-- {
		e.Reduce(into, &path[i].Children)
	}
	e.Reduce(into, &vs.User)
}
