package dedup

import (
	"repro/internal/pipeline"
	"repro/swan"
)

// Result bundles an output stream with the Output stage's checksum.
type Result struct {
	Stream   []byte
	Checksum uint64
}

func output(out []byte, sum uint64, c *Chunk, o Options) ([]byte, uint64) {
	before := len(out)
	out = AppendRecord(out, c)
	return out, OutputChecksum(sum, out[before:], o.OutputRounds)
}

// RunSerial is the sequential reference implementation (and the serial
// elision of the dataflow and hyperqueue versions).
func RunSerial(data []byte, o Options) Result {
	store := NewStore()
	var res Result
	for _, coarse := range Fragment(data, o) {
		chunks := refineChunks(coarse, o)
		for i := range chunks {
			c := &chunks[i]
			Deduplicate(c, store, o.DedupRounds)
			Compress(c)
			res.Stream, res.Checksum = output(res.Stream, res.Checksum, c, o)
		}
	}
	return res
}

// RunPthreads is the PARSEC-style pthreads pipeline: a thread pool per
// stage connected by bounded queues, the Output stage reordering to
// stream order. workersPerStage reproduces PARSEC's oversubscription
// (it starts that many threads for each parallel stage regardless of
// core count).
func RunPthreads(data []byte, o Options, workersPerStage, queueCap int) Result {
	store := NewStore()
	var res Result
	pipeline.RunPthreads(
		func(emit func(any)) { // Fragment
			for _, coarse := range Fragment(data, o) {
				emit(coarse)
			}
		},
		[]pipeline.Stage{
			{Name: "refine", Workers: workersPerStage, Fn: func(d any, emit func(any)) {
				chunks := refineChunks(d.([]byte), o)
				for i := range chunks {
					emit(&chunks[i])
				}
			}},
			{Name: "dedup", Workers: workersPerStage, Fn: func(d any, emit func(any)) {
				c := d.(*Chunk)
				Deduplicate(c, store, o.DedupRounds)
				emit(c)
			}},
			{Name: "compress", Workers: workersPerStage, Fn: func(d any, emit func(any)) {
				c := d.(*Chunk)
				Compress(c)
				emit(c)
			}},
			{Name: "output", Ordered: true, Fn: func(d any, emit func(any)) {
				res.Stream, res.Checksum = output(res.Stream, res.Checksum, d.(*Chunk), o)
			}},
		},
		queueCap,
	)
	return res
}

// RunTBB is the structured nested-pipeline restructuring TBB forces
// (Reed et al.; paper Fig. 10(a)): because TBB filters are 1:1, the
// variable-fan-out refine stage must gather each coarse chunk's fine
// chunks into a list, and the output stage waits for whole lists — the
// scalability limitation the paper calls out.
func RunTBB(data []byte, o Options, workers, tokens int) Result {
	store := NewStore()
	var res Result
	coarse := Fragment(data, o)
	i := 0
	pipeline.RunTBB(
		func() any { // serial input filter: next coarse chunk
			if i >= len(coarse) {
				return nil
			}
			i++
			return coarse[i-1]
		},
		[]pipeline.Filter{
			{Name: "inner", Mode: pipeline.Parallel, Fn: func(d any) any {
				// Whole inner pipeline for one coarse chunk: refine,
				// dedup, compress, gathered into a list (the slab).
				chunks := refineChunks(d.([]byte), o)
				for j := range chunks {
					Deduplicate(&chunks[j], store, o.DedupRounds)
					Compress(&chunks[j])
				}
				return chunks
			}},
			{Name: "output", Mode: pipeline.SerialInOrder, Fn: func(d any) any {
				chunks := d.([]Chunk)
				for j := range chunks {
					res.Stream, res.Checksum = output(res.Stream, res.Checksum, &chunks[j], o)
				}
				return d
			}},
		},
		workers, tokens,
	)
	return res
}

// RunObjects is the task-dataflow version without hyperqueues: one
// processing task per coarse chunk producing a gathered list (outdep),
// and a serialized output task per list (inoutdep on the sink). Like the
// TBB version it cannot stream fine chunks — the paper's motivation for
// hyperqueues in §6.2.
func RunObjects(rt *swan.Runtime, data []byte, o Options) Result {
	store := NewStore()
	var res Result
	rt.Run(func(f *swan.Frame) {
		sink := swan.NewVersioned(Result{})
		for _, coarse := range Fragment(data, o) {
			coarse := coarse
			list := swan.NewVersioned[[]Chunk](nil)
			f.Spawn(func(c *swan.Frame) {
				chunks := refineChunks(coarse, o)
				for j := range chunks {
					Deduplicate(&chunks[j], store, o.DedupRounds)
					Compress(&chunks[j])
				}
				list.Set(c, chunks)
			}, swan.Out(list))
			f.Spawn(func(c *swan.Frame) {
				r := sink.Get(c)
				chunks := list.Get(c)
				for j := range chunks {
					r.Stream, r.Checksum = output(r.Stream, r.Checksum, &chunks[j], o)
				}
				sink.Set(c, r)
			}, swan.In(list), swan.InOut(sink))
		}
		f.Sync()
		res = sink.Get(f)
	})
	return res
}

// RunHyperqueue is the paper's dedup (Fig. 10(b,c)): Fragment spawns, per
// coarse chunk, a nested pipeline of FragmentRefine and a merged
// DeduplicateAndCompress task connected by a chunk-local hyperqueue; all
// nested pipelines push completed chunks onto one global write queue that
// the Output task drains concurrently — no waiting for whole coarse
// chunks.
//
// The chunk-local queues are recycled: a pipeline whose producer and
// consumer have both completed leaves its (fully drained) queue
// quiescent, and the next coarse chunk reuses it via Queue.Recycle
// instead of constructing a fresh one. The working set of queues is
// therefore bounded by the number of in-flight pipelines rather than
// growing with the input, and — together with the runtime-wide segment
// pool — a long input stream reaches a steady state in which per-chunk
// queue setup allocates nothing.
//
// Unlike the baselines, this version holds no arrival-ordered shared
// Store: deduplication runs on two hypermaps, making the whole Result
// bit-identical to RunSerial for every schedule and worker count.
// The "seen" hypermap lets the parallel dedup tasks skip
// compressing chunks that are provable duplicates (Put's sound dup
// report: a serially-earlier occurrence exists, so Output will emit a
// duplicate record and never needs the payload; an unprovable duplicate
// is merely compressed redundantly). The "index" hypermap belongs to
// the serial Output task, which assigns chunk ids by interning content
// hashes in stream order — exactly the serial elision's id assignment.
func RunHyperqueue(rt *swan.Runtime, data []byte, o Options, segCap int) Result {
	var res Result
	rt.Run(func(f *swan.Frame) {
		writeQ := swan.NewQueueWithCapacity[*Chunk](f, segCap)
		seen := swan.NewHypermap[[32]byte, struct{}](f)
		index := swan.NewHypermap[[32]byte, int64](f)
		f.Spawn(func(frag *swan.Frame) { // Fragment
			// Each coarse chunk gets a nested two-stage pipeline (Fig.
			// 10(c)); coarseBatch pipelines are published per batched
			// spawn — one deque store and one wake sweep for 2×coarseBatch
			// tasks. Prepare still runs per child in program order, so
			// writeQ's push-privilege order (and thus the output stream)
			// is identical to the unbatched loop — for any batch size.
			coarseBatch := o.CoarseBatch
			if coarseBatch < 1 {
				coarseBatch = 4
			}
			// localQs holds every chunk-local queue ever created, all owned
			// by frag; scan points one past the last reuse so the rotating
			// probe visits the oldest (most likely quiescent) queues first.
			var localQs []*swan.Queue[*Chunk]
			scan := 0
			acquireLocalQ := func() *swan.Queue[*Chunk] {
				for i := 0; i < len(localQs); i++ {
					q := localQs[(scan+i)%len(localQs)]
					if q.CanRecycle(frag) {
						scan = (scan + i + 1) % len(localQs)
						q.Recycle(frag)
						return q
					}
				}
				q := swan.NewQueueWithCapacity[*Chunk](frag, segCap)
				localQs = append(localQs, q)
				return q
			}
			coarses := Fragment(data, o)
			for len(coarses) > 0 {
				n := coarseBatch
				if n > len(coarses) {
					n = len(coarses)
				}
				children := make([]swan.BatchChild, 0, 2*n)
				for _, coarse := range coarses[:n] {
					coarse := coarse
					// Nested pipeline with a recycled local queue (Fig. 10(c)).
					q := acquireLocalQ()
					children = append(children, swan.BatchChild{
						Body: func(c *swan.Frame) { // FragmentRefine
							pw := q.BindPush(c)
							chunks := refineChunks(coarse, o)
							for i := range chunks {
								pw.Push(&chunks[i])
							}
						},
						Deps: []swan.Dep{swan.Push(q)},
					}, swan.BatchChild{
						Body: func(c *swan.Frame) { // DeduplicateAndCompress (merged, §6.2)
							pp := q.BindPop(c)
							ww := writeQ.BindPush(c)
							sm := seen.BindMap(c)
							for !pp.Empty() {
								ch := pp.Pop()
								HashChunk(ch, o.DedupRounds)
								// A true dup report is sound: a serially
								// earlier occurrence of this hash exists, so
								// Output will mark the chunk duplicate and
								// the payload is never needed. Dup here only
								// skips Compress — Output reassigns it.
								if sm.Put(ch.Hash, struct{}{}) {
									ch.Dup = true
								}
								Compress(ch)
								ww.Push(ch)
							}
						},
						Deps: []swan.Dep{swan.Pop(q), swan.Push(writeQ), swan.MapWrite(seen)},
					})
				}
				coarses = coarses[n:]
				frag.SpawnBatch(children)
			}
		}, swan.Push(writeQ), swan.MapWrite(seen))
		f.Spawn(func(c *swan.Frame) { // Output
			pp := writeQ.BindPop(c)
			im := index.BindMap(c)
			// Intern content hashes in stream (pop) order: the first
			// occurrence of a hash gets the next id, later ones resolve
			// to it. PutIfAbsent reads only this task's private view, so
			// the assignment is the serial elision's, bit for bit.
			var nextID int64
			for !pp.Empty() {
				ch := pp.Pop()
				id, loaded := im.PutIfAbsent(ch.Hash, nextID)
				if !loaded {
					nextID++
					if ch.Compressed == nil {
						panic("dedup: first-occurrence chunk arrived without a payload (unsound dup skip)")
					}
				}
				ch.ID, ch.Dup = id, loaded
				res.Stream, res.Checksum = output(res.Stream, res.Checksum, ch, o)
			}
		}, swan.Pop(writeQ), swan.MapWrite(index))
		f.Sync()
		if writeQ.CanRecycle(f) {
			writeQ.Recycle(f) // drained: segments back to the runtime pool
		}
	})
	return res
}
