package core

import "repro/internal/sched"

// Queue slices (§5.2): direct access to a queue segment, "as fast as an
// array access". A read slice exposes contiguous already-produced values
// at the head; a write slice exposes contiguous free space at the tail.
// Both are bounded by a single segment, so a shorter slice than requested
// may be returned, exactly as the paper specifies.

// ReadSlice returns up to max already-produced values at the head of the
// queue without copying. The values stay in the queue until ConsumeRead
// reports how many were processed. It requires pop privileges; it does
// not block — an empty result means no values are immediately available
// (use Empty to distinguish end-of-stream from a transient gap). Like
// the other consumer operations it is a one-shot bind over the Popper
// implementation (handle.go).
func (q *Queue[T]) ReadSlice(f *sched.Frame, max int) []T {
	p := q.BindPop(f)
	return p.ReadSlice(max)
}

// ConsumeRead removes the first n values from the queue after the caller
// has processed a ReadSlice. n must not exceed the length of the last
// ReadSlice result.
func (q *Queue[T]) ConsumeRead(f *sched.Frame, n int) {
	p := q.BindPop(f)
	p.ConsumeRead(n)
}

// WriteSlice returns a slice of n uninitialized value slots at the tail
// of the queue. The caller fills them and then calls CommitWrite; the
// values are not visible to the consumer until committed. A new segment
// is created when the current one cannot accommodate n contiguous slots
// (for n larger than the segment capacity the new segment is sized to
// fit, as §5.2 allows).
func (q *Queue[T]) WriteSlice(f *sched.Frame, n int) []T {
	qv := q.mustViews(f, ModePush)
	if n < 1 {
		return nil
	}
	if !qv.vs.User.Valid {
		q.attachFreshSegment(qv)
	}
	seg := qv.vs.User.Tail
	start, free := seg.contiguousWritable()
	if free < int64(n) {
		var snew *segment[T]
		if n > q.segCap {
			// Oversized request: a one-off segment sized to fit, outside
			// the pool (put drops it again on recycle). Counted in
			// SegmentAllocs so the pool-audit balance stays closed.
			snew = newSegment[T](n)
			q.prov.segAllocs.Add(1)
		} else {
			snew = q.pool.get(q.pool.shard(f.WorkerID()))
		}
		seg.next.Store(snew)
		qv.vs.User.Tail = snew
		seg = snew
		start = 0
	}
	return seg.buf[start : start+int64(n)]
}

// CommitWrite publishes the first n slots of the last WriteSlice to the
// consumer. On a bounded queue the credits are accounted here, at
// publish time — WriteSlice only reserves buffer space, which does not
// consume the element budget until the values become visible — and a
// commit larger than the remaining budget publishes in credit-sized
// chunks, waking the consumer between chunks, exactly like PushSlice.
func (q *Queue[T]) CommitWrite(f *sched.Frame, n int) {
	qv := q.mustViews(f, ModePush)
	seg := qv.vs.User.Tail
	if seg == nil {
		panic("hyperqueue: CommitWrite without WriteSlice")
	}
	t := seg.tail.Load()
	if int64(len(seg.buf))-(t-seg.headCache) < int64(n) && seg.reloadHead() < int64(n) {
		panic("hyperqueue: CommitWrite past the end of the write slice")
	}
	for left := int64(n); left > 0; {
		chunk := left
		if fl := q.flow; fl != nil {
			chunk = fl.acquire(f, left)
		}
		left -= chunk
		t += chunk
		seg.tail.Store(t)
		q.wakeConsumer()
	}
	if n == 0 {
		q.wakeConsumer()
	}
}
