package core

import (
	"repro/internal/core/hyper"
	"repro/internal/sched"
)

// HyperOption configures a reducer or hypermap at construction.
type HyperOption func(*hyperOpts)

type hyperOpts struct {
	name string
}

// HyperNamed registers the object on the runtime's PoolProvider under
// name, so its merge/view counters appear in RuntimeStats,
// swan.WriteMetrics and paperbench -stats. Objects sharing a name
// aggregate into one row, like metered queues. Unnamed objects are not
// registered — churny callers can create and drop them freely without
// growing the registry.
func HyperNamed(name string) HyperOption {
	return func(o *hyperOpts) { o.name = name }
}

// Monoid is the fold a Reducer performs: an identity value and an
// associative combine.
//
// Combine MUST be exactly associative for the reducer to be
// deterministic: the reducer guarantees that views merge in serial
// program order, but the association shape of the merge tree depends on
// task completion order. Integer sums, list appends, max/min, histogram
// merges and disjoint-slot writes are exact; a floating-point sum is
// associative only approximately, so its low-order bits may vary across
// schedules (the per-sensor slot layout in internal/workloads/streamstats
// shows how to keep floating-point folds exact: give every task its own
// slot and make Combine a disjoint union).
type Monoid[T any] struct {
	// Identity returns the fold's identity value (fresh on each call, so
	// reference types are safe).
	Identity func() T
	// Combine folds from into *into; into precedes from in serial
	// program order.
	Combine func(into *T, from T)
}

// rview is the reducer's view value: a monoid value plus an activation
// bit. ε is the zero value (has == false) — distinct from an activated
// view holding the identity, so merges never invent identity elements.
type rview[T any] struct {
	val T
	has bool
}

// redOps implements hyper.Ops for reducer views.
type redOps[T any] struct{ m *Monoid[T] }

func (o redOps[T]) Valid(v *rview[T]) bool { return v.has }

func (o redOps[T]) Reduce(into, from *rview[T]) {
	if !from.has {
		return
	}
	if !into.has {
		*into = *from
	} else {
		o.m.Combine(&into.val, from.val)
	}
	*from = rview[T]{}
}

// Reducer is a deterministic hyperobject fold (the Cilk++ reducer idea
// on the Swan view algebra): every task spawned with the reducer's
// dependence gets a private view, Add/Update mutate only that view —
// no locks, no contention — and the substrate folds the views in
// serial program order at completion and sync points. After a Sync
// covering every writer, Value returns exactly what a serial execution
// would have computed, for any schedule or worker count
// (provided the monoid's Combine is exactly associative).
type Reducer[T any] struct {
	obj hyper.Obj[rview[T], redOps[T]]
	m   Monoid[T]
}

// NewReducer creates a reducer owned by frame f. The owner holds a view
// and may Add/Update like any writer; it delegates write access by
// spawning children with Reduce(r).
func NewReducer[T any](f *sched.Frame, m Monoid[T], opts ...HyperOption) *Reducer[T] {
	if m.Identity == nil || m.Combine == nil {
		panic("reducer: Monoid needs both Identity and Combine")
	}
	r := &Reducer[T]{m: m}
	var o hyperOpts
	for _, opt := range opts {
		opt(&o)
	}
	r.obj.Init(f, "reducer", o.name, redOps[T]{&r.m})
	if o.name != "" {
		ProviderOf(f.Runtime()).registerHyper(&r.obj)
	}
	return r
}

// Reduce returns the write dependence on r: the spawned task gets a
// private view and may Add/Update. Writers run fully in parallel; the
// merge order, not scheduling, provides determinism.
func Reduce[T any](r *Reducer[T]) sched.Dep { return r.obj.Dep() }

// RedHandle is a bound writer handle on a reducer, resolved once per
// task body by BindReduce. Like queue handles it may only be used by
// the goroutine running the body of the frame it was bound to, and must
// not outlive that body.
type RedHandle[T any] struct {
	vs *hyper.ViewSet[rview[T]]
	m  *Monoid[T]
}

// BindReduce resolves frame f's view on r once and returns the bound
// handle. It panics if f holds no view (spawn the task with Reduce(r)).
func (r *Reducer[T]) BindReduce(f *sched.Frame) RedHandle[T] {
	return RedHandle[T]{vs: r.obj.MustViews(f), m: &r.m}
}

// Add folds v into the task's private view: view = Combine(view, v).
// The first Add after a spawn or sync activates the view with the
// monoid identity. No locks are taken; steady-state Adds allocate
// nothing beyond what Combine itself does.
func (h RedHandle[T]) Add(v T) {
	u := &h.vs.User
	if !u.has {
		u.val = h.m.Identity()
		u.has = true
	}
	h.m.Combine(&u.val, v)
}

// Update applies fn to the task's private view in place — for monoids
// whose natural update is not "combine with a single element" (slot
// writes, histogram bumps). fn must preserve the monoid discipline:
// the final value must equal what per-element Combines would produce.
func (h RedHandle[T]) Update(fn func(*T)) {
	u := &h.vs.User
	if !u.has {
		u.val = h.m.Identity()
		u.has = true
	}
	fn(&u.val)
}

// Value returns the calling task's current view of the fold: its own
// writes plus everything folded in at its past sync points. For the
// owner after a Sync covering every writer this is the complete,
// deterministic fold; the identity when nothing was added. Value does
// not consume the view — further Adds continue the fold.
func (r *Reducer[T]) Value(f *sched.Frame) T {
	vs := r.obj.MustViews(f)
	if !vs.User.has {
		return r.m.Identity()
	}
	return vs.User.val
}

// Stat returns the reducer's metric snapshot.
func (r *Reducer[T]) Stat() hyper.Stat { return r.obj.HyperStat() }
