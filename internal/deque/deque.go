// Package deque implements a Chase–Lev work-stealing deque (Chase & Lev,
// "Dynamic circular work-stealing deque", SPAA 2005) with the memory-model
// fixes of Lê et al. (PPoPP 2013), adapted to Go's atomics.
//
// The deque has a single owner that pushes and pops at the bottom (LIFO)
// and any number of thieves that steal from the top (FIFO). FIFO stealing
// is what gives Cilk-style schedulers their locality and their bounded
// space guarantee: thieves take the oldest, typically largest, task.
//
// The Swan-like scheduler in internal/sched (PolicySteal, the default)
// uses one deque per worker as its dispatch substrate: spawns push at the
// bottom of the spawning worker's deque, sync points pop from it
// help-first, and idle workers steal from randomized victims.
// BenchmarkAblationSchedulerSubstrate in bench_test.go runs the ablation:
// this stealing runtime against the goroutine-per-task slot-semaphore
// baseline (PolicyGoroutine), and BenchmarkAblationDequeVsChannelDispatch
// compares the raw deque against a channel as a dispatch primitive.
package deque

import "sync/atomic"

// D is a work-stealing deque of *T. The ring stores pointers (which keeps
// the circular-array swap safe under concurrent steals), and the pointer
// methods — PushPtr, PopPtr, StealPtr and the batch forms — move exactly
// the pointer the caller handed in: the scheduler pushes records it
// already owns and pays no allocation per task. Push, Pop and Steal are
// the by-value convenience forms; Push boxes its argument. A thief never
// dereferences a pointer it failed to claim, so the owner may recycle a
// popped record immediately. The zero value is not usable; call New.
type D[T any] struct {
	top    atomic.Int64 // next slot to steal from
	bottom atomic.Int64 // next slot to push to
	array  atomic.Pointer[ring[T]]
}

// ring is an immutable-size circular array. Grow replaces the whole ring;
// old rings are left to the garbage collector (thieves may still be
// reading them, which is safe because entries are only read, never
// recycled, between top and bottom).
type ring[T any] struct {
	size int64 // always a power of two
	mask int64
	buf  []atomic.Pointer[T]
}

func newRing[T any](size int64) *ring[T] {
	return &ring[T]{size: size, mask: size - 1, buf: make([]atomic.Pointer[T], size)}
}

func (r *ring[T]) get(i int64) *T    { return r.buf[i&r.mask].Load() }
func (r *ring[T]) put(i int64, v *T) { r.buf[i&r.mask].Store(v) }

func (r *ring[T]) grow(top, bottom int64) *ring[T] {
	nr := newRing[T](r.size * 2)
	for i := top; i < bottom; i++ {
		nr.put(i, r.get(i))
	}
	return nr
}

// New returns an empty deque with the given initial capacity, rounded up
// to a power of two (minimum 8).
func New[T any](capacity int) *D[T] {
	size := int64(8)
	for size < int64(capacity) {
		size *= 2
	}
	d := &D[T]{}
	d.array.Store(newRing[T](size))
	return d
}

// Push adds a copy of v at the bottom of the deque. Only the owner may
// call Push.
func (d *D[T]) Push(v T) { d.PushPtr(&v) }

// Pop removes and returns the most recently pushed value (LIFO). Only the
// owner may call Pop. ok is false if the deque was empty.
func (d *D[T]) Pop() (v T, ok bool) {
	if p := d.PopPtr(); p != nil {
		return *p, true
	}
	return v, false
}

// Steal removes and returns the oldest value (FIFO). Any goroutine may
// call Steal. ok is false if the deque was empty or the steal lost a race
// (callers typically retry elsewhere).
func (d *D[T]) Steal() (v T, ok bool) {
	if p := d.StealPtr(); p != nil {
		return *p, true
	}
	return v, false
}

// PushPtr adds p, which must not be nil, at the bottom of the deque. Only
// the owner may call PushPtr.
func (d *D[T]) PushPtr(p *T) {
	b := d.bottom.Load()
	t := d.top.Load()
	a := d.array.Load()
	if b-t >= a.size {
		a = a.grow(t, b)
		d.array.Store(a)
	}
	a.put(b, p)
	d.bottom.Store(b + 1)
}

// PushBatch adds all of ps (none nil) at the bottom of the deque,
// publishing them with a single bottom store: thieves either see none of
// the batch or a prefix-complete view of it, and the owner pays one
// release-store for k tasks instead of k. Only the owner may call
// PushBatch. The scheduler uses it for loop-split spawning
// (Frame.SpawnN), where a stage publishes a whole wave of tasks at once.
func (d *D[T]) PushBatch(ps []*T) {
	n := int64(len(ps))
	if n == 0 {
		return
	}
	b := d.bottom.Load()
	t := d.top.Load()
	a := d.array.Load()
	if b+n-t > a.size {
		for b+n-t > a.size {
			a = a.grow(t, b)
		}
		d.array.Store(a)
	}
	for i, p := range ps {
		a.put(b+int64(i), p)
	}
	d.bottom.Store(b + n)
}

// PopPtr removes and returns the most recently pushed pointer (LIFO), or
// nil if the deque was empty. Only the owner may call PopPtr.
func (d *D[T]) PopPtr() *T {
	b := d.bottom.Load() - 1
	a := d.array.Load()
	d.bottom.Store(b)
	t := d.top.Load()
	if t > b {
		// Deque was empty; restore bottom.
		d.bottom.Store(b + 1)
		return nil
	}
	p := a.get(b)
	if t == b {
		// Single element left: race with thieves for it.
		if !d.top.CompareAndSwap(t, t+1) {
			p = nil // a thief got it first
		}
		d.bottom.Store(b + 1)
	}
	return p
}

// StealPtr removes and returns the oldest pointer (FIFO), or nil if the
// deque was empty or the steal lost a race (callers typically retry
// elsewhere). Any goroutine may call StealPtr.
func (d *D[T]) StealPtr() *T {
	t := d.top.Load()
	b := d.bottom.Load()
	if t >= b {
		return nil
	}
	a := d.array.Load()
	p := a.get(t)
	if !d.top.CompareAndSwap(t, t+1) {
		return nil
	}
	return p
}

// StealBatch steals up to half of the victim's visible run (and at most
// len(buf) pointers) from the top, oldest first, returning how many were
// written into buf. Any goroutine may call StealBatch. A return of 0
// means the deque looked empty or the first claim lost a race.
//
// The batch is claimed one CAS per element, not one CAS for the whole
// range: the owner's Pop takes elements at the bottom *without* touching
// top whenever more than one element remains, so a thief that read
// [t, t+k) and then advanced top by k in a single CAS could claim slots
// the owner concurrently popped, double-executing them. Per-element CAS
// keeps every claim identical to the proven single Steal linearization;
// the batch win is fewer victim scans and park/wake cycles per stolen
// task, plus a run of local work for the thief — not fewer CASes.
func (d *D[T]) StealBatch(buf []*T) int {
	t := d.top.Load()
	b := d.bottom.Load()
	n := b - t
	if n <= 0 {
		return 0
	}
	want := (n + 1) / 2
	if want > int64(len(buf)) {
		want = int64(len(buf))
	}
	got := 0
	for int64(got) < want {
		t = d.top.Load()
		if t >= d.bottom.Load() {
			break
		}
		a := d.array.Load()
		p := a.get(t)
		if !d.top.CompareAndSwap(t, t+1) {
			break // lost a race; keep what we have
		}
		buf[got] = p
		got++
	}
	return got
}

// Len reports an instantaneous size estimate. It is exact when called by
// the owner with no concurrent steals, and approximate otherwise.
func (d *D[T]) Len() int {
	n := d.bottom.Load() - d.top.Load()
	if n < 0 {
		return 0
	}
	return int(n)
}
