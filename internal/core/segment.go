package core

import "sync/atomic"

// segment is one fixed-size queue segment (§3.2): a single-producer,
// single-consumer circular buffer (Lamport, TOPLAS 1983) with a link to
// the next segment in the hyperqueue's chain.
//
// Ownership discipline:
//   - tail (and the slots it guards) are written only by the one producer
//     task currently holding a local tail pointer to the segment
//     (invariant 5: at most one view's tail pointer).
//   - head is written only by the one consumer task holding the queue
//     view (invariant 2: exactly one queue view with a local head).
//   - next is written once, by the producer that abandons the segment
//     (push into a full segment) or by a reduction linking two chains;
//     both cases are serialized by the queue's structural mutex or by
//     tail ownership.
//
// Cached indices (FastForward, PPoPP 2008; MCRingBuffer, IPDPS 2010):
// the header is two cache lines, one per side. Each side keeps a private
// copy of the other side's index — headCache on the producer's line,
// tailCache on the consumer's — written only by its owner. Indices only
// grow, so a stale copy only understates free space or data; a side
// reloads the shared index (an acquire of the other side's release) only
// when its copy says full or empty, or would cut a contiguous span short.
// The consumer also keeps its own copy of the buf slice header, so on the
// per-element path neither side reads a line the other side writes.
// reset clears both copies while the caller owns the segment exclusively.
//
// A producer and a consumer sharing one segment reuse it as a ring,
// giving the paper's zero-allocation steady state.
type segment[T any] struct {
	// Producer line.
	tail      atomic.Int64 // next index to push (mod len(buf))
	headCache int64        // producer's copy of head; ≤ head
	next      atomic.Pointer[segment[T]]
	buf       []T
	headLoads uint64 // producer reloads of head, counted under debug checks
	_         [8]byte

	// Consumer line.
	head      atomic.Int64 // next index to pop (mod len(buf))
	tailCache int64        // consumer's copy of tail; ≤ tail
	cbuf      []T          // consumer's copy of buf
	tailLoads uint64       // consumer reloads of tail, counted under debug checks
	_         [16]byte
}

func newSegment[T any](capacity int) *segment[T] {
	if capacity < 1 {
		capacity = 1
	}
	buf := make([]T, capacity)
	return &segment[T]{buf: buf, cbuf: buf}
}

// NextSeg and SetNextSeg implement hyper.Chain, letting the generic
// pairing discipline (hyper.View, hyper.PairOps) link segment chains
// without knowing the segment type.

func (s *segment[T]) NextSeg() *segment[T] { return s.next.Load() }

func (s *segment[T]) SetNextSeg(n *segment[T]) { s.next.Store(n) }

// reset returns a drained segment to its freshly-allocated state so the
// pool can hand it to a new producer. The caller must own the segment
// exclusively. The buffer needs no clearing: pop and ConsumeRead zero
// each slot as they drain it.
func (s *segment[T]) reset() {
	s.head.Store(0)
	s.tail.Store(0)
	s.headCache, s.tailCache = 0, 0
	s.headLoads, s.tailLoads = 0, 0
	s.next.Store(nil)
}

// size reports the number of values currently stored, from both shared
// indices. It is for callers that own neither side (diagnostics,
// Recycle); the producer and the consumer use full and readable.
func (s *segment[T]) size() int64 { return s.tail.Load() - s.head.Load() }

// The reloads are kept out of line: every per-element method below then
// stays within the compiler's inlining budget, as the two-load methods
// they replace were.

// reloadHead refreshes the producer's copy of head and returns the free
// space. Producer only.
//
//go:noinline
func (s *segment[T]) reloadHead() int64 {
	if debugChecks.Load() {
		s.headLoads++
	}
	s.headCache = s.head.Load() // acquire: the consumer's slot reads are done
	return int64(len(s.buf)) - (s.tail.Load() - s.headCache)
}

// reloadTail refreshes the consumer's copy of tail and returns the
// number of values readable. Consumer only.
//
//go:noinline
func (s *segment[T]) reloadTail() int64 {
	if debugChecks.Load() {
		s.tailLoads++
	}
	s.tailCache = s.tail.Load() // acquire: publishes the producer's slot writes
	return s.tailCache - s.head.Load()
}

// full reports whether a push would not fit, reloading head only when
// the cached copy says full. Producer only.
func (s *segment[T]) full() bool {
	return s.tail.Load()-s.headCache >= int64(len(s.buf)) && s.reloadHead() <= 0
}

// push appends v. The caller must be the owning producer and must have
// checked !full(), which leaves the cached head showing a free slot;
// push on a full segment panics.
func (s *segment[T]) push(v T) {
	t := s.tail.Load()
	if t-s.headCache >= int64(len(s.buf)) {
		panic("hyperqueue: push on full segment")
	}
	s.buf[t%int64(len(s.buf))] = v
	s.tail.Store(t + 1) // release: publishes buf[t] to the consumer
}

// readable reports whether the consumer can pop, reloading tail only
// when the cached copy says empty. Consumer only.
func (s *segment[T]) readable() bool {
	return s.tailCache-s.head.Load() > 0 || s.reloadTail() > 0
}

// pop removes and returns the oldest value. The caller must be the owning
// consumer and must have seen readable() report true, which leaves the
// cached tail showing a value; pop on an empty segment panics.
func (s *segment[T]) pop() T {
	h := s.head.Load()
	if s.tailCache-h <= 0 {
		panic("hyperqueue: pop on empty segment")
	}
	i := h % int64(len(s.cbuf))
	v := s.cbuf[i]
	var zero T
	s.cbuf[i] = zero // drop the reference for the garbage collector
	s.head.Store(h + 1)
	return v
}

// contiguousReadable returns the index of the oldest value and how many
// values can be read from cbuf without wrapping, reloading tail when the
// cached copy would cut the span short. Consumer only; used by PopInto
// and read slices (§5.2).
func (s *segment[T]) contiguousReadable() (start, n int64) {
	h := s.head.Load()
	i := h % int64(len(s.cbuf))
	n = int64(len(s.cbuf)) - i
	if avail := s.tailCache - h; avail < n {
		n = min(n, s.reloadTail())
	}
	return i, n
}

// contiguousWritable returns the index of the next free slot and how many
// values can be written without wrapping, reloading head when the cached
// copy would cut the span short. Producer only; used by PushSlice and
// write slices (§5.2).
func (s *segment[T]) contiguousWritable() (start, n int64) {
	t := s.tail.Load()
	i := t % int64(len(s.buf))
	n = int64(len(s.buf)) - i
	if free := int64(len(s.buf)) - (t - s.headCache); free < n {
		n = min(n, s.reloadHead())
	}
	return i, n
}
