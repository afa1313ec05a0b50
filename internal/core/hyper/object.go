package hyper

import (
	"sync"
	"sync/atomic"

	"repro/internal/sched"
)

// Stat is one hyperobject's metric snapshot, surfaced through the
// runtime's PoolProvider registry and swan.WriteMetrics.
type Stat struct {
	// Name is the registration name (HyperNamed); objects sharing a
	// name aggregate into one row, like metered queues.
	Name string
	// Kind is the object flavor: "reducer", "hypermap", ...
	Kind string
	// Merges counts reductions that carried data across a task
	// boundary (non-ε source view).
	Merges uint64
	// Views counts view sets ever created on the object: the owner's
	// plus one per task spawned with the object's dependence.
	Views uint64
}

// Hyperobject is the common metrics surface of every object built on
// the substrate.
type Hyperobject interface {
	HyperStat() Stat
}

// objKey is the frame-attachment key type for an Obj. Each object is
// its own key, so a frame can hold views on any number of distinct
// hyperobjects (and queues) at once.
type objKey struct{ o any }

// Obj is a self-locking hyperobject base: it owns the engine, a mutex
// serializing engine calls, the owner's view set, the frame-attachment
// plumbing and a ready-made write dependence. The queue does not use it
// (it needs its split consMu/regMu discipline); reducers and hypermaps
// embed it.
//
// Concurrency contract for embedders: ViewSet.User is private to the
// view's frame goroutine — element operations (a reducer Add, a map
// Put) touch only the calling task's user view and need no lock. All
// structural folds run under mu.
type Obj[V any, O Ops[V]] struct {
	mu    sync.Mutex
	eng   Engine[V, O]
	kind  string
	name  string
	owner objViews[V, O]
	views atomic.Uint64
}

// Init wires the object to its owning frame: the owner's view set is
// attached to f, and a sync hook folds completed children's deposits
// into the owner's user view at every sync. Must be called exactly
// once, from f's goroutine, before any other method.
func (o *Obj[V, O]) Init(f *sched.Frame, kind, name string, ops O) {
	o.eng.Ops = ops
	o.kind, o.name = kind, name
	o.owner.Frame = f
	o.views.Store(1)
	o.owner.o = o
	f.SetAttachment(objKey{o}, &o.owner)
	f.AddSyncHook(&o.owner)
}

// objViews is one task's view set on an Obj, tied to the object so that
// it can serve as the task's sync hook.
type objViews[V any, O Ops[V]] struct {
	ViewSet[V]
	o *Obj[V, O]
}

// OnSync implements sched.SyncHook: completed children's deposits fold
// into the task's user view at every sync.
func (ov *objViews[V, O]) OnSync() {
	ov.o.mu.Lock()
	ov.o.eng.SyncFold(&ov.ViewSet)
	ov.o.mu.Unlock()
}

// ViewsOf returns the view set frame f holds on the object, or nil.
func (o *Obj[V, O]) ViewsOf(f *sched.Frame) *ViewSet[V] {
	ov, _ := f.Attachment(objKey{o}).(*objViews[V, O])
	if ov == nil {
		return nil
	}
	return &ov.ViewSet
}

// MustViews is ViewsOf, panicking when f holds no view on the object.
func (o *Obj[V, O]) MustViews(f *sched.Frame) *ViewSet[V] {
	vs := o.ViewsOf(f)
	if vs == nil {
		panic("hyperobject: task holds no view on this " + o.kind + "; spawn it with the object's dependence")
	}
	return vs
}

// Dep returns the object's write dependence: a task spawned with it
// gets a private view set (its user view inherited from the parent, per
// the spawn hand-off) and deposits its views back in serial program
// order at completion. There is no scheduling restriction — writers of
// a reducer or hypermap run fully in parallel; determinism comes from
// the merge order, not from serialization.
func (o *Obj[V, O]) Dep() sched.Dep { return objDep[V, O]{o} }

// HyperStat implements Hyperobject.
func (o *Obj[V, O]) HyperStat() Stat {
	o.mu.Lock()
	m := o.eng.Merges
	o.mu.Unlock()
	return Stat{Name: o.name, Kind: o.kind, Merges: m, Views: o.views.Load()}
}

type objDep[V any, O Ops[V]] struct {
	o *Obj[V, O]
}

// Prepare runs synchronously at spawn time in the parent, in program
// order: the parent's user view moves to the child (lockless — both
// views are parent-goroutine-private at spawn time), the child links
// into the live-sibling chain under the object lock, and the child's
// sync hook is registered.
func (d objDep[V, O]) Prepare(parent, child *sched.Frame) {
	o := d.o
	pvs := o.MustViews(parent) // subset rule: the parent must itself hold a view to delegate one
	cov := &objViews[V, O]{o: o}
	cvs := &cov.ViewSet
	cvs.Frame = child
	o.eng.HandOff(pvs, cvs)
	o.mu.Lock()
	o.eng.Link(pvs, cvs)
	o.mu.Unlock()
	child.SetAttachment(objKey{o}, cov)
	child.AddSyncHook(cov)
	o.views.Add(1)
}

// Wait never gates: hyperobject writers impose no scheduling
// restriction.
func (d objDep[V, O]) Wait(child *sched.Frame) {}

// Ready implements sched.ReadyDep: always ready.
func (d objDep[V, O]) Ready(child *sched.Frame) bool { return true }

// Complete deposits the child's views into its nearest live elder
// sibling or its parent and unlinks it, in the child's context, after
// its body and implicit sync.
func (d objDep[V, O]) Complete(parent, child *sched.Frame) {
	o := d.o
	cvs := o.MustViews(child)
	o.mu.Lock()
	o.eng.Retire(cvs)
	o.mu.Unlock()
}
