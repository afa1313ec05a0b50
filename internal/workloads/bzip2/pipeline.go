package bzip2

import (
	"encoding/binary"

	"repro/internal/rng"
	"repro/swan"
)

// GenerateInput synthesizes compressible, deterministic input text of
// roughly the requested size: words drawn from a small vocabulary with a
// skewed distribution, so BWT/MTF/Huffman all have realistic work.
func GenerateInput(seed uint64, size int) []byte {
	r := rng.New(seed)
	vocab := make([][]byte, 64)
	for i := range vocab {
		w := make([]byte, 3+r.Intn(8))
		for j := range w {
			w[j] = byte('a' + r.Intn(26))
		}
		vocab[i] = w
	}
	out := make([]byte, 0, size+16)
	for len(out) < size {
		// Skewed choice: low indices much more likely.
		idx := r.Intn(8) * r.Intn(8)
		out = append(out, vocab[idx]...)
		out = append(out, ' ')
	}
	return out[:size]
}

// appendRecord frames one compressed block into the output stream.
func appendRecord(out, block []byte) []byte {
	out = binary.AppendUvarint(out, uint64(len(block)))
	return append(out, block...)
}

// DecompressStream inverts any of the Run* pipelines' output.
func DecompressStream(stream []byte) ([]byte, error) {
	var out []byte
	for len(stream) > 0 {
		n, k := binary.Uvarint(stream)
		if k <= 0 {
			return nil, errInvalidStream
		}
		stream = stream[k:]
		blk, err := DecompressBlock(stream[:n])
		if err != nil {
			return nil, err
		}
		stream = stream[n:]
		out = append(out, blk...)
	}
	return out, nil
}

var errInvalidStream = errorString("bzip2: invalid stream framing")

type errorString string

func (e errorString) Error() string { return string(e) }

// RunSerial is the reference implementation: the serial elision of every
// parallel variant below.
func RunSerial(data []byte, blockSize int) []byte {
	var out []byte
	for _, blk := range SplitBlocks(data, blockSize) {
		out = appendRecord(out, CompressBlock(blk))
	}
	return out
}

// RunObjects is the task-dataflow version (paper [7], §6.3 baseline):
// one outdep compress task per block, serialized writes through an
// inoutdep on the output buffer. The read stage is the spawning loop
// itself — it cannot overlap with compression the way a queue allows,
// but compression tasks run fully parallel.
func RunObjects(rt *swan.Runtime, data []byte, blockSize int) []byte {
	var out []byte
	rt.Run(func(f *swan.Frame) {
		sink := swan.NewVersioned[[]byte](nil)
		for _, blk := range SplitBlocks(data, blockSize) {
			blk := blk
			enc := swan.NewVersioned[[]byte](nil)
			f.Spawn(func(c *swan.Frame) {
				enc.Set(c, CompressBlock(blk))
			}, swan.Out(enc))
			f.Spawn(func(c *swan.Frame) {
				sink.Set(c, appendRecord(sink.Get(c), enc.Get(c)))
			}, swan.In(enc), swan.InOut(sink))
		}
		f.Sync()
		out = sink.Get(f)
	})
	return out
}

// RunHyperqueue is the paper's first bzip2 hyperqueue implementation
// (§6.3): one task per stage connected by two hyperqueues; the middle
// stage spawns a compression task per popped block, passing the output
// queue's push privilege so block order is restored by the reduction
// properties.
func RunHyperqueue(rt *swan.Runtime, data []byte, blockSize, segCap int) []byte {
	var out []byte
	rt.Run(func(f *swan.Frame) {
		q2 := swan.NewQueueWithCapacity[[]byte](f, segCap, swan.Named("bzip2.compressed"))
		f.Spawn(func(s12 *swan.Frame) {
			q1 := swan.NewQueueWithCapacity[[]byte](s12, segCap, swan.Named("bzip2.blocks"))
			s12.Spawn(func(c *swan.Frame) {
				pw := q1.BindPush(c)
				pw.PushSlice(SplitBlocks(data, blockSize))
			}, swan.Push(q1))
			s12.Spawn(func(c *swan.Frame) {
				pp := q1.BindPop(c)
				for !pp.Empty() {
					blk := pp.Pop()
					c.Spawn(func(g *swan.Frame) {
						q2.Push(g, CompressBlock(blk))
					}, swan.Push(q2))
				}
			}, swan.Pop(q1), swan.Push(q2))
			s12.Sync()
			if q1.CanRecycle(s12) {
				q1.Recycle(s12) // drained: segments back to the runtime pool
			}
		}, swan.Push(q2))
		f.Spawn(func(c *swan.Frame) {
			pp := q2.BindPop(c)
			for !pp.Empty() {
				out = appendRecord(out, pp.Pop())
			}
		}, swan.Pop(q2))
		f.Sync()
		if q2.CanRecycle(f) {
			q2.Recycle(f)
		}
	})
	return out
}

// RunHyperqueueLoopSplit applies the §5.4 queue-loop-split idiom: the
// block loop is hoisted out of the producer task so that at most
// batch blocks are queued per round, bounding memory growth when the
// program executes serially while keeping the same parallelism. Each
// round is one bulk transfer end to end: the producer publishes its
// blocks with a single PushSlice (one wake-up probe per round), the
// round's dispatch task drains its visible slice with PopInto (one
// reachability probe per segment) and publishes all of its compression
// tasks as one batched spawn (Frame.SpawnN): one deque store and one
// worker wake sweep per round instead of one per block. Output order is
// unchanged — SpawnN prepares the push privileges in index order, which
// is pop order.
func RunHyperqueueLoopSplit(rt *swan.Runtime, data []byte, blockSize, segCap, batch int) []byte {
	if batch < 1 {
		batch = 8
	}
	var out []byte
	rt.Run(func(f *swan.Frame) {
		q2 := swan.NewQueueWithCapacity[[]byte](f, segCap)
		f.Spawn(func(s12 *swan.Frame) {
			q1 := swan.NewQueueWithCapacity[[]byte](s12, segCap)
			pw := q1.BindPush(s12)
			blocks := SplitBlocks(data, blockSize)
			for len(blocks) > 0 {
				n := batch
				if n > len(blocks) {
					n = len(blocks)
				}
				pw.PushSlice(blocks[:n])
				blocks = blocks[n:]
				s12.Spawn(func(c *swan.Frame) {
					// Only this round's blocks are visible (pushes after
					// this task's spawn are hidden by rule 4), so the
					// drain collects at most batch blocks.
					pp := q1.BindPop(c)
					round := make([][]byte, batch)
					got := 0
					for got < len(round) && !pp.Empty() {
						got += pp.PopInto(round[got:])
					}
					c.SpawnN(got, func(g *swan.Frame, i int) {
						q2.Push(g, CompressBlock(round[i]))
					}, swan.Push(q2))
				}, swan.Pop(q1), swan.Push(q2))
			}
			s12.Sync()
			if q1.CanRecycle(s12) {
				q1.Recycle(s12)
			}
		}, swan.Push(q2))
		f.Spawn(func(c *swan.Frame) {
			pp := q2.BindPop(c)
			for !pp.Empty() {
				out = appendRecord(out, pp.Pop())
			}
		}, swan.Pop(q2))
		f.Sync()
		if q2.CanRecycle(f) {
			q2.Recycle(f)
		}
	})
	return out
}
