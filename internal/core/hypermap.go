package core

import (
	"sync"

	"repro/internal/core/hyper"
	"repro/internal/sched"
)

// hview is the hypermap's view value: a keyed index private to one
// task. ε is the zero value (nil map).
type hview[K comparable, V any] struct {
	m map[K]V
}

// hmOps implements hyper.Ops for hypermap views: first-writer-wins
// merge in serial program order. Reduce keeps every entry of *into (the
// earlier view) and adopts entries of *from only for keys into does not
// have, so the merged map holds, for every key, the value written by
// the serially-first Put — deterministically, whatever order the views
// physically merge in (per-key insert-if-absent is idempotent, so map
// iteration order does not matter).
type hmOps[K comparable, V any] struct{}

func (hmOps[K, V]) Valid(v *hview[K, V]) bool { return v.m != nil }

func (hmOps[K, V]) Reduce(into, from *hview[K, V]) {
	if from.m == nil {
		return
	}
	if into.m == nil {
		into.m = from.m // pointer steal: the common "one writer" case is O(1)
		from.m = nil
		return
	}
	for k, v := range from.m {
		if _, ok := into.m[k]; !ok {
			into.m[k] = v
		}
	}
	from.m = nil
}

// Hypermap is a deterministic first-writer-wins keyed index on the view
// algebra: every task spawned with the map's dependence gets a private
// view, Put inserts into that view without locks, and the substrate
// merges views in serial program order — the serially-first writer of a
// key wins, for any schedule or worker count.
//
// Alongside the deterministic views the map keeps a shared *advisory
// claims* index, letting Put answer "was this key already put by a task
// that definitely precedes me?" without waiting for a sync. The answer
// is conservative: true only when the program-order labels prove the
// other writer's whole body precedes the caller in the serial elision,
// so a true is sound whatever the physical schedule was, while a false
// may simply mean the earlier writer has not been observed yet. Use it
// to skip work that only a duplicate would waste (dedup skips
// compressing chunks it can prove are duplicates); never branch program
// *output* on it — output must come from the merged views or from a
// single serial reader (PutIfAbsent).
type Hypermap[K comparable, V any] struct {
	obj hyper.Obj[hview[K, V], hmOps[K, V]]

	// claimsMu guards claims, which the first Put creates. It is a leaf
	// lock: nothing else is taken while it is held. A typed map keeps
	// keys unboxed; a sync.Map would box every key into an interface.
	claimsMu sync.Mutex
	claims   map[K]*hyperclaim
}

// hyperclaim identifies a claimant by its frame's label rather than the
// frame: claims are compared long after the claiming task has returned
// and its frame record has moved on to another task. One claim serves
// every Put of a bound handle.
type hyperclaim struct {
	label []int32
}

// labelOrder is where one frame label sits relative to another in the
// serial elision.
type labelOrder int

const (
	labelSame       labelOrder = iota
	labelAncestor              // a is a proper ancestor of b
	labelDescendant            // a is a proper descendant of b
	labelBefore                // a precedes b, neither contains the other
	labelAfter                 // a follows b, neither contains the other
)

// cmpLabels places label a relative to label b.
func cmpLabels(a, b []int32) labelOrder {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return labelBefore
			}
			return labelAfter
		}
	}
	switch {
	case len(a) < len(b):
		return labelAncestor
	case len(a) > len(b):
		return labelDescendant
	}
	return labelSame
}

// NewHypermap creates a hypermap owned by frame f. The owner holds a
// view and delegates write access by spawning children with MapWrite.
func NewHypermap[K comparable, V any](f *sched.Frame, opts ...HyperOption) *Hypermap[K, V] {
	m := &Hypermap[K, V]{}
	var o hyperOpts
	for _, opt := range opts {
		opt(&o)
	}
	m.obj.Init(f, "hypermap", o.name, hmOps[K, V]{})
	if o.name != "" {
		ProviderOf(f.Runtime()).registerHyper(&m.obj)
	}
	return m
}

// MapWrite returns the write dependence on m: the spawned task gets a
// private view and may Put/Get/PutIfAbsent through a bound handle.
// Writers run fully in parallel.
func MapWrite[K comparable, V any](m *Hypermap[K, V]) sched.Dep { return m.obj.Dep() }

// MapHandle is a bound handle on a hypermap, resolved once per task
// body by BindMap. Like queue handles it may only be used by the
// goroutine running the body of the frame it was bound to, and must not
// outlive that body.
type MapHandle[K comparable, V any] struct {
	vs    *hyper.ViewSet[hview[K, V]]
	hm    *Hypermap[K, V]
	claim *hyperclaim
}

// BindMap resolves frame f's view on m once and returns the bound
// handle. It panics if f holds no view (spawn the task with MapWrite).
func (m *Hypermap[K, V]) BindMap(f *sched.Frame) MapHandle[K, V] {
	return MapHandle[K, V]{vs: m.obj.MustViews(f), hm: m, claim: &hyperclaim{label: f.Label()}}
}

// Put records k → v in the task's private view if the view does not
// hold k yet (within a view the first Put wins, matching the serial
// first-writer-wins discipline), and reports whether k is a *provable
// duplicate*: already in the private view, or claimed by a writer whose
// whole task body precedes this one in the serial elision. The report
// is sound but conservative — false can mean "first writer" or "an
// earlier writer exists that cannot be proven earlier yet" — so use it
// only to skip duplicate-only work, never to decide program output.
func (h MapHandle[K, V]) Put(k K, v V) (dup bool) {
	u := &h.vs.User
	if u.m == nil {
		u.m = make(map[K]V)
	} else if _, ok := u.m[k]; ok {
		return true
	}
	u.m[k] = v
	return h.hm.claim(k, h.claim)
}

// claim records c as k's claimant if k has none, or if c provably
// precedes the current one, and reports whether the current claimant
// proves an earlier occurrence of k.
func (m *Hypermap[K, V]) claim(k K, c *hyperclaim) (dup bool) {
	m.claimsMu.Lock()
	defer m.claimsMu.Unlock()
	if m.claims == nil {
		m.claims = make(map[K]*hyperclaim)
	}
	got, ok := m.claims[k]
	if !ok {
		m.claims[k] = c
		return false
	}
	// The claim proves an earlier occurrence iff the claimant's whole
	// body precedes this task (f) in the serial elision: f's own earlier
	// put (the private view lost it to a spawn hand-off), a descendant
	// spawned before this point, or a non-ancestor task ordered before f.
	// An *ancestor's* claim proves nothing — the ancestor may have put
	// the key after spawning f, which in the serial elision runs after
	// f's entire body (the same label logic as the queue's
	// visibleProducerLive).
	switch cmpLabels(got.label, c.label) {
	case labelSame, labelDescendant, labelBefore:
		return true
	case labelAfter:
		// f is provably earlier than the current claimant: later probes
		// compare against f instead.
		m.claims[k] = c
	}
	return false
}

// Get reports the value the task's private view holds for k. It sees
// the task's own Puts plus everything inherited through spawn hand-off
// and past syncs — a deterministic prefix of the serial execution — and
// deliberately not the advisory claims of concurrent writers.
func (h MapHandle[K, V]) Get(k K) (V, bool) {
	v, ok := h.vs.User.m[k]
	return v, ok
}

// PutIfAbsent inserts k → v into the private view if absent and returns
// the value the view maps k to afterwards, with loaded reporting
// whether the key was already present. Unlike Put it never consults the
// shared claims index, so its answer is fully deterministic; a single
// serial reader task (a pipeline's output stage) can use it to intern
// keys in stream order — dedup assigns its chunk ids this way.
func (h MapHandle[K, V]) PutIfAbsent(k K, v V) (V, bool) {
	u := &h.vs.User
	if u.m == nil {
		u.m = make(map[K]V)
	}
	if old, ok := u.m[k]; ok {
		return old, true
	}
	u.m[k] = v
	return v, false
}

// Get reports the value frame f's view holds for k — for the owner
// after a Sync covering every writer, the deterministic first-writer
// value.
func (m *Hypermap[K, V]) Get(f *sched.Frame, k K) (V, bool) {
	vs := m.obj.MustViews(f)
	v, ok := vs.User.m[k]
	return v, ok
}

// Len reports how many keys frame f's view holds.
func (m *Hypermap[K, V]) Len(f *sched.Frame) int {
	return len(m.obj.MustViews(f).User.m)
}

// Stat returns the hypermap's metric snapshot.
func (m *Hypermap[K, V]) Stat() hyper.Stat { return m.obj.HyperStat() }
