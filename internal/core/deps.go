package core

import "repro/internal/sched"

// Push returns the pushdep dependence on q: the spawned task may push
// values. Pushers execute concurrently with each other and with the
// consumer (§2.3 rules 1, 2, 4).
func Push[T any](q *Queue[T]) sched.Dep { return &q.deps[ModePush-1] }

// Pop returns the popdep dependence on q: the spawned task may pop values
// and test Empty. Pop tasks on the same queue are serialized in program
// order (§2.3 rule 3).
func Pop[T any](q *Queue[T]) sched.Dep { return &q.deps[ModePop-1] }

// PushPop returns the pushpopdep dependence on q, combining both
// privileges and both scheduling restrictions.
func PushPop[T any](q *Queue[T]) sched.Dep { return &q.deps[ModePushPop-1] }

// queueDep is one access mode of one queue. A queue holds its three
// (Queue.deps) and Push/Pop/PushPop hand out pointers to them, so a
// dependence is pointer-shaped and costs a spawn no allocation.
type queueDep[T any] struct {
	q    *Queue[T]
	mode AccessMode
}

// Object implements sched.ObjectDep: the runtime refuses a spawn with two
// dependences on one queue (use PushPop). The second view set would
// shadow the first, which would never leave the sibling chain.
func (d *queueDep[T]) Object() any { return d.q }

// Prepare runs synchronously at spawn time in the parent, in program
// order (§4.2, "Spawn with push/pop privileges"): it checks the privilege
// subset rule, hands the parent's user view to the child, links the child
// into the live-sibling chain, registers producers, and issues the
// consumer-serialization ticket. Only the sibling chain and the producer
// registry need q.regMu; the view handoff and the ticket touch
// parent-goroutine-private state.
func (d *queueDep[T]) Prepare(parent, child *sched.Frame) {
	q := d.q
	pqv := q.mustViews(parent, d.mode) // subset rule: parent must hold every privilege it delegates

	cqv := q.pool.getViews(q.pool.shard(parent.WorkerID()))
	cqv.q, cqv.mode, cqv.parentQV = q, d.mode, pqv
	cqv.vs.Frame = child

	// The user view moves to the child: for pushers so they extend the
	// chain in place, for poppers so it is hidden from later pushers
	// until the child returns it (§4.2).
	q.eng.HandOff(&pqv.vs, &cqv.vs)

	if d.mode&ModePop != 0 {
		cqv.popTicket = pqv.popTickets.Load()
		pqv.popTickets.Add(1)
	}

	q.lockReg()
	// Link as youngest live sibling of pqv's children on this queue.
	q.eng.Link(&pqv.vs, &cqv.vs)
	if d.mode&ModePush != 0 {
		q.producers[child] = struct{}{}
		// Once any producer registers, TryPop/ReadSlice misses must run
		// the locked frontier fold (values may travel through deposited
		// views); the flag stays set until Recycle rearms the queue.
		q.everProducer.Store(true)
	}
	q.unlockReg()

	child.SetAttachment(queueKey[T]{q}, cqv)
	child.AddSyncHook(cqv)
}

// Wait gates the child before it takes a worker slot: pop-privileged
// tasks wait for their elder pop siblings (§2.3 rule 3). Push-only tasks
// start immediately (rules 1, 2 and 4). A canceled scope or a poisoned
// queue wakes the gate; the child then unwinds instead of starting its
// body (the substrate absorbs the unwind and still runs the completion
// protocol, so the ticket this child holds is served for its siblings).
func (d *queueDep[T]) Wait(child *sched.Frame) {
	if d.mode&ModePop == 0 {
		return
	}
	q := d.q
	cqv := q.viewsOf(child)
	if cqv.parentQV.popServed.Load() == cqv.popTicket {
		return
	}
	sc := child.CancelScope()
	child.Park(q, func() {
		q.lockCons()
		q.sleepers++
		for cqv.parentQV.popServed.Load() != cqv.popTicket {
			if q.failErr() != nil || sc.Canceled() {
				break
			}
			q.cond.Wait()
		}
		q.sleepers--
		q.consMu.Unlock()
	})
	if cqv.parentQV.popServed.Load() != cqv.popTicket {
		if err := q.failErr(); err != nil {
			q.raiseStop(err)
		}
		q.raiseStop(sc.Err())
	}
}

// Ready is the non-blocking probe of sched.ReadyDep: push-only tasks are
// always ready, and a pop-privileged task is ready once its consumer
// ticket has been served. popServed only advances, so readiness is
// stable, as the contract requires. The probe is a single atomic load.
func (d *queueDep[T]) Ready(child *sched.Frame) bool {
	if d.mode&ModePop == 0 {
		return true
	}
	cqv := d.q.viewsOf(child)
	return cqv.parentQV.popServed.Load() == cqv.popTicket
}

// Complete runs in the child after its body and implicit sync: the
// child's views are reduced into its nearest live elder sibling or its
// parent (§4.2, "Return from spawn"), it leaves the live-sibling chain,
// producers retire, and the consumer ticket advances.
//
// A retiring producer may have been the last one ordered before a
// consumer parked in Empty/Pop. In that case Complete performs the
// frontier fold itself (§4.5 double reduction, run from the producer
// side): the consumer wakes to data already linked into the head chain
// instead of re-deriving the fold under its own decision path. The fold
// requires consMu (which proves the parked consumer cannot concurrently
// touch the queue view) and regMu nested inside it, so the registry
// lock is released first — regMu is never held while taking consMu.
func (d *queueDep[T]) Complete(parent, child *sched.Frame) {
	q := d.q
	cqv := q.viewsOf(child)

	q.lockReg()
	// Deposit the child's views into its nearest live elder sibling or
	// its parent and unlink it from the live-sibling chain — the
	// substrate's Retire fold.
	q.eng.Retire(&cqv.vs)

	if d.mode&ModePush != 0 {
		delete(q.producers, child)
	}
	q.unlockReg()

	if d.mode&ModePop != 0 {
		cqv.parentQV.popServed.Add(1)
	}

	// Wake ticket waiters and consumers blocked in Empty/Pop — and, when
	// this completion retired the last producer ordered before a parked
	// consumer, link the frontier on its behalf first.
	q.lockCons()
	if pc := q.parked; pc != nil {
		q.lockReg()
		if !q.visibleProducerLive(pc.vs.Frame) {
			q.linkFrontier(pc)
		}
		q.unlockReg()
	}
	q.wakeLocked()
	q.consMu.Unlock()

	// Retire has unlinked the view set from the sibling chain, the child's
	// own children retired theirs before its implicit sync returned, and
	// the consumer-side state (q.parked) only ever names a task inside
	// its own wait: nothing references cqv any more.
	q.pool.putViews(q.pool.shard(child.WorkerID()), cqv)
}
