package swan

// This file provides pipeline-construction helpers that package the
// paper's programming idioms (§5, §6): a producer task, a
// transform stage that preserves order while processing items in
// parallel (the ferret/bzip2 dispatcher pattern), a serial transform
// (dedup's merged DeduplicateAndCompress), and a draining consumer.
// They remove the wiring boilerplate without hiding the model: each
// helper spawns ordinary tasks with ordinary queue dependences, so
// programs built from them remain serializable, deterministic and
// scale-free. Every helper binds its queue handles once at task entry
// (Queue.BindPush / Queue.BindPop). The consuming helpers take what their
// input already holds in one bulk pop of up to min(256, Bound) values
// (Popper.PopBatches) and never wait to fill a batch; a bounded input's
// budget is returned at the pop, so besides the Bound values in the queue
// at most one batch is in the helper's hands. The push side is eager and
// per element: a value is visible to the next stage when push returns,
// because the code between two pushes is the caller's and may take
// arbitrarily long.

// Produce spawns a producer task with push privileges on q. The body
// receives a push function bound to the task's frame; it may also spawn
// its own nested producers through the frame.
func Produce[T any](f *Frame, q *Queue[T], body func(c *Frame, push func(T))) {
	f.Spawn(func(c *Frame) {
		pw := q.BindPush(c)
		body(c, pw.Push)
	}, Push(q))
}

// TransformEach spawns a dispatcher that pops every value from in and
// processes it in a freshly spawned task that pushes fn's result to out.
// Items are processed in parallel; the hyperqueue's reduction semantics
// deliver results to out's consumer in input order (the paper's ferret
// and bzip2 structure, §6.1, §6.3).
//
// The caller's frame must hold pop privileges on in and push privileges
// on out (the queue owner does).
func TransformEach[I, O any](f *Frame, in *Queue[I], out *Queue[O], fn func(I) O) {
	f.Spawn(func(c *Frame) {
		pp := in.BindPop(c)
		pp.PopBatches(in.Bound(), func(vs []I) {
			for _, v := range vs {
				c.Spawn(func(g *Frame) {
					out.Push(g, fn(v))
				}, Push(out))
			}
		})
	}, Pop(in), Push(out))
}

// TransformSerial spawns a single task that pops each value from in and
// pushes fn's results (zero or more per input) to out in order — the
// merged-stage idiom dedup uses to coarsen task granularity (§6.2).
func TransformSerial[I, O any](f *Frame, in *Queue[I], out *Queue[O], fn func(I, func(O))) {
	f.Spawn(func(c *Frame) {
		pp := in.BindPop(c)
		pw := out.BindPush(c)
		push := pw.Push // bound once: a method value allocates where it is evaluated
		pp.PopBatches(in.Bound(), func(vs []I) {
			for _, v := range vs {
				fn(v, push)
			}
		})
	}, Pop(in), Push(out))
}

// Drain spawns a consumer task that pops every value visible to it from
// q, in deterministic serial order, and applies fn.
func Drain[T any](f *Frame, q *Queue[T], fn func(T)) {
	f.Spawn(func(c *Frame) {
		pp := q.BindPop(c)
		pp.PopBatches(q.Bound(), func(vs []T) {
			for _, v := range vs {
				fn(v)
			}
		})
	}, Pop(q))
}

// DrainSlices is Drain using the §5.2 read-slice fast path: fn receives
// batches that alias queue storage and must not retain them.
func DrainSlices[T any](f *Frame, q *Queue[T], batch int, fn func([]T)) {
	if batch < 1 {
		batch = 64
	}
	f.Spawn(func(c *Frame) {
		pp := q.BindPop(c)
		var one [1]T // the fallback's batch, allocated once per task rather than per pop
		for !pp.Empty() {
			s := pp.ReadSlice(batch)
			if len(s) == 0 {
				// Empty returned false, so a value is in flight; fall
				// back to a single pop to make progress.
				one[0] = pp.Pop()
				fn(one[:])
				continue
			}
			fn(s)
			pp.ConsumeRead(len(s))
		}
	}, Pop(q))
}
