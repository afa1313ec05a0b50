package dedup

import "repro/swan"

// Coarse is one coarse chunk entering the sharded pipeline. Stamp
// carries the open-loop harness's ingress timestamp (nanoseconds from
// the run start); it is zero when the run is unpaced.
type Coarse struct {
	Data  []byte
	Stamp int64
}

// shardOut is one coarse chunk's processed bundle leaving a shard
// worker: the refined, hashed, (conditionally) compressed fine chunks,
// still in refine order, plus the ingress stamp for latency accounting.
type shardOut struct {
	chunks []Chunk
	stamp  int64
}

// ShardedConfig shapes a RunSharded: the fan-out geometry plus the
// optional open-loop pacing hooks (internal/bench wires them to its
// arrival generator and latency histogram; both nil means run flat
// out).
type ShardedConfig struct {
	Shards int // partitions (default 1)
	Bound  int // per-shard queue bound (default swan.DefaultShardBound)
	SegCap int // queue segment capacity (default runtime's)

	// Arrive, when set, is called in the producer before coarse chunk i
	// is pushed; it waits until the chunk's arrival time and returns
	// the ingress stamp carried through the pipeline. It receives the
	// producer's frame so a pacing sleep can run inside a Frame.Block
	// region (not holding a worker slot) while the common no-wait case
	// stays a plain call.
	Arrive func(c *swan.Frame, i int) int64
	// Complete, when set, is called on the egress consumer after a
	// coarse chunk's records are written, with its ingress stamp.
	Complete func(stamp int64)
}

// fnv1a is the 64-bit FNV-1a content hash used as the shard partition
// key. Inlined (rather than hash/fnv) so routing allocates nothing.
func fnv1a(data []byte) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for _, b := range data {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// RunSharded executes the dedup kernel through a swan.Sharded fan-out:
// coarse chunks are partitioned by their FNV-1a content hash, each
// shard worker refines, hashes and compresses its chunks with a
// shard-local duplicate filter, and the egress consumer writes records
// in arrival order, interning content hashes exactly as the serial
// elision does. The Result is byte-identical to RunSerial for every
// shard count, worker count and schedule.
//
// The shard-local "seen" sets are sound for the same reason the
// hypermap's Put is in RunHyperqueue: a shard's arrival order is a
// subsequence of the global arrival order, so a locally-seen hash has
// an earlier global occurrence — Output will resolve the duplicate and
// never needs the skipped payload. A hash first seen on this shard but
// earlier on another is merely compressed redundantly; the egress
// interning, which replays the global order, still classifies it
// correctly.
func RunSharded(rt *swan.Runtime, data []byte, o Options, cfg ShardedConfig) Result {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	var res Result
	rt.Run(func(f *swan.Frame) {
		s := swan.NewSharded(f,
			swan.ShardConfig{Shards: cfg.Shards, Bound: cfg.Bound, SegCap: cfg.SegCap, Name: "dedup.sharded"},
			func(c Coarse) uint64 { return fnv1a(c.Data) },
			func(c *swan.Frame, shard int) func(Coarse) shardOut {
				seen := make(map[[32]byte]struct{})
				return func(in Coarse) shardOut {
					chunks := refineChunks(in.Data, o)
					for j := range chunks {
						ch := &chunks[j]
						HashChunk(ch, o.DedupRounds)
						if _, dup := seen[ch.Hash]; dup {
							// Sound dup: an earlier chunk on this shard —
							// hence earlier in global order — carries the
							// payload. Skipping Compress is the only effect;
							// the egress reassigns Dup from its own view.
							ch.Dup = true
						} else {
							seen[ch.Hash] = struct{}{}
						}
						Compress(ch)
					}
					return shardOut{chunks: chunks, stamp: in.Stamp}
				}
			})
		f.Spawn(func(c *swan.Frame) {
			p := s.In().BindPush(c)
			var stamp int64
			for i, coarse := range Fragment(data, o) {
				if cfg.Arrive != nil {
					stamp = cfg.Arrive(c, i)
				}
				p.Push(Coarse{Data: coarse, Stamp: stamp})
			}
		}, swan.Push(s.In()))
		s.Launch(f)
		f.Spawn(func(c *swan.Frame) { // Output: serial, arrival order
			p := s.Out().BindPop(c)
			// Intern content hashes in pop order — the serial elision's id
			// assignment, bit for bit (compare RunHyperqueue's Output).
			index := make(map[[32]byte]int64)
			var nextID int64
			for !p.Empty() {
				bundle := p.Pop()
				for j := range bundle.chunks {
					ch := &bundle.chunks[j]
					id, loaded := index[ch.Hash]
					if !loaded {
						id = nextID
						index[ch.Hash] = id
						nextID++
						if ch.Compressed == nil {
							panic("dedup: first-occurrence chunk arrived without a payload (unsound dup skip)")
						}
					}
					ch.ID, ch.Dup = id, loaded
					res.Stream, res.Checksum = output(res.Stream, res.Checksum, ch, o)
				}
				if cfg.Complete != nil {
					cfg.Complete(bundle.stamp)
				}
			}
		}, swan.Pop(s.Out()))
		f.Sync()
	})
	return res
}
