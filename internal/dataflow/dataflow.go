// Package dataflow implements Swan-style versioned objects (Vandierendonck
// et al., PACT 2011), the task-dataflow substrate the paper's "objects"
// baseline uses and the machinery hyperqueues borrow their scheduling
// discipline from (SC 2013 §1, §2.3).
//
// A Versioned[T] is a program variable with dependence tracking attached.
// Tasks are spawned with access-mode dependences:
//
//   - In (indep): the task reads the object. It waits for the writer that
//     produced the version it reads, and runs concurrently with other
//     readers of that version.
//   - Out (outdep): the task overwrites the object. Renaming gives it a
//     fresh version immediately, breaking write-after-read and
//     write-after-write dependences — the "automatic memory management"
//     of §1.
//   - InOut (inoutdep): the task reads and writes in place. It waits for
//     the previous version's writer and all of its readers; successive
//     InOut tasks on one object therefore execute serially in program
//     order, which is how Figure 1 orders its consume stage.
package dataflow

import (
	"sync"

	"repro/internal/sched"
)

// Versioned is a variable of type T with dependence-tracking versions.
type Versioned[T any] struct {
	mu   sync.Mutex
	cond *sync.Cond
	cur  *generation[T]

	// deps are the object's three dependences, indexed by mode; In, Out
	// and InOut return pointers into the array, so a dependence is
	// pointer-shaped and costs a spawn no allocation.
	deps [3]dep[T]
}

// generation is one renamed version of the object's storage.
type generation[T any] struct {
	val        *T
	hasWriter  bool // a task was spawned to produce this version
	writerDone bool
	readers    int // live reader tasks bound to this version
}

type binding[T any] struct {
	gen  *generation[T]
	prev *generation[T] // for InOut: the version whose readers/writer gate us
	mode mode
}

type mode uint8

const (
	modeIn mode = iota
	modeOut
	modeInOut
)

type objKey[T any] struct{ v *Versioned[T] }

// NewVersioned returns a versioned variable holding initial. The initial
// version counts as already written.
func NewVersioned[T any](initial T) *Versioned[T] {
	v := &Versioned[T]{}
	v.cond = sync.NewCond(&v.mu)
	val := initial
	v.cur = &generation[T]{val: &val, writerDone: true}
	for m := modeIn; m <= modeInOut; m++ {
		v.deps[m] = dep[T]{v, m}
	}
	return v
}

// In returns the indep dependence: the spawned task reads v.
func In[T any](v *Versioned[T]) sched.Dep { return &v.deps[modeIn] }

// Out returns the outdep dependence: the spawned task overwrites v and
// receives a fresh renamed version.
func Out[T any](v *Versioned[T]) sched.Dep { return &v.deps[modeOut] }

// InOut returns the inoutdep dependence: the spawned task reads and
// writes v in place, serialized after the previous version's writer and
// readers.
func InOut[T any](v *Versioned[T]) sched.Dep { return &v.deps[modeInOut] }

type dep[T any] struct {
	v *Versioned[T]
	m mode
}

// Prepare runs at spawn time in program order: it binds the child to the
// version it will access and performs renaming for writers.
func (d *dep[T]) Prepare(parent, child *sched.Frame) {
	v := d.v
	v.mu.Lock()
	defer v.mu.Unlock()
	b := &binding[T]{mode: d.m}
	switch d.m {
	case modeIn:
		b.gen = v.cur
		v.cur.readers++
	case modeOut:
		val := new(T)
		v.cur = &generation[T]{val: val, hasWriter: true}
		b.gen = v.cur
	case modeInOut:
		b.prev = v.cur
		// In-place successor: shares storage with the previous version.
		v.cur = &generation[T]{val: v.cur.val, hasWriter: true}
		b.gen = v.cur
	}
	child.SetAttachment(objKey[T]{v}, b)
}

// Wait gates the child until its version is accessible.
func (d *dep[T]) Wait(child *sched.Frame) {
	v := d.v
	b := child.Attachment(objKey[T]{v}).(*binding[T])
	v.mu.Lock()
	switch d.m {
	case modeIn:
		for b.gen.hasWriter && !b.gen.writerDone {
			v.cond.Wait()
		}
	case modeOut:
		// Renaming: never waits.
	case modeInOut:
		for (b.prev.hasWriter && !b.prev.writerDone) || b.prev.readers > 0 {
			v.cond.Wait()
		}
	}
	v.mu.Unlock()
}

// Ready is the non-blocking probe of sched.ReadyDep. Readiness is stable
// as the contract requires: writerDone only flips to true, and a
// superseded generation's reader count only decreases (Prepare binds new
// readers to the current generation, never to a superseded one).
func (d *dep[T]) Ready(child *sched.Frame) bool {
	v := d.v
	b := child.Attachment(objKey[T]{v}).(*binding[T])
	v.mu.Lock()
	defer v.mu.Unlock()
	switch d.m {
	case modeIn:
		return !b.gen.hasWriter || b.gen.writerDone
	case modeInOut:
		return (!b.prev.hasWriter || b.prev.writerDone) && b.prev.readers == 0
	}
	return true // modeOut: renaming never waits
}

// Complete releases the child's claim on its version.
func (d *dep[T]) Complete(parent, child *sched.Frame) {
	v := d.v
	b := child.Attachment(objKey[T]{v}).(*binding[T])
	v.mu.Lock()
	switch d.m {
	case modeIn:
		b.gen.readers--
	case modeOut, modeInOut:
		b.gen.writerDone = true
	}
	v.cond.Broadcast()
	v.mu.Unlock()
}

// Get returns the value of the version the calling task is bound to. A
// task bound by In, InOut (or Out, after its own Set) reads its own
// version. A task with no binding — typically the frame that created the
// object — reads the latest version, blocking until its writer has
// completed (this is the serial-elision value at this program point).
func (v *Versioned[T]) Get(f *sched.Frame) T {
	if b, ok := f.Attachment(objKey[T]{v}).(*binding[T]); ok {
		return *b.gen.val
	}
	var out T
	f.Block(func() {
		v.mu.Lock()
		g := v.cur
		for g.hasWriter && !g.writerDone {
			v.cond.Wait()
		}
		out = *g.val
		v.mu.Unlock()
	})
	return out
}

// Set writes the value of the version the calling task is bound to. A
// task bound by Out or InOut writes its own version. An unbound frame
// (the creator) waits for the latest version's writer and readers, then
// updates in place — the inline analogue of an inoutdep access.
func (v *Versioned[T]) Set(f *sched.Frame, val T) {
	if b, ok := f.Attachment(objKey[T]{v}).(*binding[T]); ok {
		if b.mode == modeIn {
			panic("dataflow: Set from a task with indep (read-only) access")
		}
		*b.gen.val = val
		return
	}
	f.Block(func() {
		v.mu.Lock()
		g := v.cur
		for (g.hasWriter && !g.writerDone) || g.readers > 0 {
			v.cond.Wait()
		}
		*g.val = val
		v.mu.Unlock()
	})
}
