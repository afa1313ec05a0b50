// Package dedup reproduces the PARSEC dedup kernel the paper evaluates in
// §6.2: a 5-stage pipeline — Fragment (coarse chunking), FragmentRefine
// (fine chunking), Deduplicate (content hashing against a global store),
// Compress (unique chunks only) and Output (serial, in stream order) —
// implemented over pthreads-style, TBB-style, task-dataflow and
// hyperqueue models.
//
// The content pipeline is real: rolling-hash content-defined chunking,
// SHA-256 identity, DEFLATE compression, and a self-describing output
// stream that Reassemble inverts back to the input bytes.
package dedup

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"io"
	"sync"
)

// Options fixes the chunking geometry and the per-stage cost model.
type Options struct {
	CoarseAvg int // average coarse-chunk size (power of two), Fragment stage
	FineAvg   int // average fine-chunk size (power of two), FragmentRefine stage
	MaxFactor int // maximum chunk size = avg * MaxFactor

	// CoarseBatch is how many coarse chunks RunHyperqueue publishes per
	// batched spawn (each contributes a two-task nested pipeline).
	// Zero means the default (4).
	CoarseBatch int

	// DedupRounds and OutputRounds calibrate the Deduplicate and Output
	// stage costs to the paper's Table 2 proportions (7.9% and 8.2%).
	// The paper's Deduplicate maintains an on-disk-backed chunk index
	// and its Output performs real disk writes; our SHA-256+map and
	// buffer append are relatively cheaper than PARSEC's against flate,
	// so the stages repeat their hash/checksum work this many times.
	// Fig. 11's speedup shape (Output is the limiting serial stage)
	// depends on these proportions, not on absolute cost.
	DedupRounds  int
	OutputRounds int
}

// DefaultOptions mirrors the proportions of PARSEC's configuration
// scaled to benchmark-friendly sizes, calibrated against Table 2.
func DefaultOptions() Options {
	return Options{
		CoarseAvg: 64 * 1024, FineAvg: 4 * 1024, MaxFactor: 4,
		DedupRounds: 7, OutputRounds: 25,
	}
}

// Chunk is a fine-grained chunk moving through the pipeline.
type Chunk struct {
	Data       []byte
	Hash       [32]byte
	ID         int64
	Dup        bool
	Compressed []byte
}

// rolling is a simple multiplicative rolling hash over a fixed window
// (Rabin–Karp style), used for content-defined chunk boundaries.
const (
	hashWindow = 32
	hashPrime  = 1099511628211 // FNV prime
)

var hashPowTable = func() (t [256]uint64) {
	// pow = hashPrime^(hashWindow-1) mod 2^64, premultiplied per byte value.
	pow := uint64(1)
	for i := 0; i < hashWindow-1; i++ {
		pow *= hashPrime
	}
	for b := range t {
		t[b] = uint64(b+1) * pow
	}
	return t
}()

// split cuts data at content-defined boundaries with the given average
// size (must be a power of two). A boundary is declared where the rolling
// hash has avg-1 trailing zero-masked bits; chunks are capped at
// avg*maxFactor.
func split(data []byte, avg, maxFactor int) [][]byte {
	if avg < hashWindow*2 {
		avg = hashWindow * 2
	}
	mask := uint64(avg - 1)
	maxLen := avg * maxFactor
	var out [][]byte
	start := 0
	var h uint64
	for i := 0; i < len(data); i++ {
		h = h*hashPrime + uint64(data[i]+1)
		if i-start >= hashWindow {
			h -= hashPowTable[data[i-hashWindow]] * hashPrime
		}
		if i-start+1 >= hashWindow && (h&mask) == mask || i-start+1 >= maxLen {
			out = append(out, data[start:i+1])
			start = i + 1
			h = 0
		}
	}
	if start < len(data) {
		out = append(out, data[start:])
	}
	return out
}

// Fragment performs the coarse first-stage chunking.
func Fragment(data []byte, o Options) [][]byte { return split(data, o.CoarseAvg, o.MaxFactor) }

// Refine performs the fine second-stage chunking of one coarse chunk.
func Refine(coarse []byte, o Options) [][]byte { return split(coarse, o.FineAvg, o.MaxFactor) }

// refineChunks refines one coarse chunk into one slab of Chunks, in
// stream order: every pipeline hands out &chunks[i] rather than
// allocating each fine chunk on its own.
func refineChunks(coarse []byte, o Options) []Chunk {
	fines := Refine(coarse, o)
	chunks := make([]Chunk, len(fines))
	for i, fine := range fines {
		chunks[i].Data = fine
	}
	return chunks
}

// Store is the global deduplication table: content hash to chunk id.
// Lookup is first-writer-wins under striped locking, exactly the shared
// hash table the PARSEC kernel uses.
type Store struct {
	shards [64]struct {
		mu sync.Mutex
		m  map[[32]byte]int64
	}
	next struct {
		sync.Mutex
		id int64
	}
}

// NewStore returns an empty deduplication table.
func NewStore() *Store {
	s := &Store{}
	for i := range s.shards {
		s.shards[i].m = make(map[[32]byte]int64)
	}
	return s
}

// Intern returns the id for hash, allocating a fresh one (dup=false) on
// first sight.
func (s *Store) Intern(hash [32]byte) (id int64, dup bool) {
	sh := &s.shards[hash[0]&63]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if id, ok := sh.m[hash]; ok {
		return id, true
	}
	s.next.Lock()
	id = s.next.id
	s.next.id++
	s.next.Unlock()
	sh.m[hash] = id
	return id, false
}

// HashChunk computes the chunk's content hash. rounds calibrates the
// stage cost (see Options.DedupRounds); every round recomputes the
// hash, the last one is authoritative.
func HashChunk(c *Chunk, rounds int) {
	if rounds < 1 {
		rounds = 1
	}
	for i := 0; i < rounds; i++ {
		c.Hash = sha256.Sum256(c.Data)
	}
}

// Deduplicate hashes the chunk and consults the store — the
// arrival-ordered discipline of the pthreads, TBB and objects baselines.
// The hyperqueue pipeline splits the stage into HashChunk plus a
// deterministic hypermap probe instead (see RunHyperqueue).
func Deduplicate(c *Chunk, s *Store, rounds int) {
	HashChunk(c, rounds)
	c.ID, c.Dup = s.Intern(c.Hash)
}

// compressor is a DEFLATE writer together with the buffer it writes
// into; Compress reuses both across chunks.
type compressor struct {
	w   *flate.Writer
	buf bytes.Buffer
}

// maxIdleCompressors caps the free list. Each idle compressor pins about
// 800 KB of writer state, so an oversubscribed RunPthreads (a compress
// stage with more threads than this) drops its surplus to the GC instead
// of keeping it for the life of the process.
const maxIdleCompressors = 64

// compressors is the free list Compress takes from and returns to. It is
// padded to 64 bytes, a whole cache line: the linker lays globals out by
// size, so a global whose size is not a multiple of the line moves every
// larger one behind it — the Go runtime's scheduler state among them —
// to a new offset within its lines. At 32 bytes that alone made
// elem_stream, which never compresses, 6 % slower on a 2-core Xeon.
var compressors struct {
	mu   sync.Mutex
	free []*compressor
	_    [32]byte
}

func getCompressor() *compressor {
	compressors.mu.Lock()
	if n := len(compressors.free); n > 0 {
		z := compressors.free[n-1]
		compressors.free = compressors.free[:n-1]
		compressors.mu.Unlock()
		return z
	}
	compressors.mu.Unlock()
	z := &compressor{}
	z.w, _ = flate.NewWriter(&z.buf, flate.DefaultCompression) // the level is valid: no error
	return z
}

func putCompressor(z *compressor) {
	compressors.mu.Lock()
	if len(compressors.free) < maxIdleCompressors {
		compressors.free = append(compressors.free, z)
	}
	compressors.mu.Unlock()
}

// Compress DEFLATEs a unique chunk's payload; duplicates are skipped, as
// in the paper's pipeline (§6.2: "the compression stage is skipped for
// duplicate chunks").
//
// A fresh flate.NewWriter costs about 20 allocations and 800 KB of zeroed
// state, several times the compression of a 4 KiB chunk, so Compress
// takes a writer from a free list and Resets it (flate documents Reset as
// equivalent to NewWriter with the original level: the output is byte
// for byte the same). The only allocation left is the exact-size copy
// stored in c.Compressed. The free list is a mutex-guarded slice rather
// than a sync.Pool because the GC empties a Pool: every collection would
// put a round of NewWriter calls back on the compress stage, and the
// allocation count per chunk would depend on when collections happen.
func Compress(c *Chunk) {
	if c.Dup {
		return
	}
	z := getCompressor()
	z.buf.Reset()
	z.w.Reset(&z.buf)
	z.w.Write(c.Data) // writes to a bytes.Buffer do not fail
	z.w.Close()
	c.Compressed = bytes.Clone(z.buf.Bytes())
	putCompressor(z)
}

// Output record kinds.
const (
	recUnique = 1
	recDup    = 2
)

// AppendRecord serializes one chunk into the output stream and returns a
// position-dependent checksum, modelling the Output stage's per-byte
// write work.
func AppendRecord(out []byte, c *Chunk) []byte {
	if c.Dup {
		out = append(out, recDup)
		out = binary.AppendUvarint(out, uint64(c.ID))
		return out
	}
	out = append(out, recUnique)
	out = binary.AppendUvarint(out, uint64(c.ID))
	out = binary.AppendUvarint(out, uint64(len(c.Compressed)))
	return append(out, c.Compressed...)
}

// OutputChecksum burns the Output stage's serial per-byte cost (the
// paper's Output writes every record to disk; rounds passes over the
// record model that write — see Options.OutputRounds).
func OutputChecksum(sum uint64, rec []byte, rounds int) uint64 {
	if rounds < 1 {
		rounds = 1
	}
	for i := 0; i < rounds; i++ {
		for _, b := range rec {
			sum = sum*31 + uint64(b)
		}
	}
	return sum
}

// Reassemble inverts the output stream back to the original data. Two
// passes: unique payloads may appear after duplicate references when the
// pipeline ran in parallel (the dedup decision is arrival-ordered), so
// ids are resolved first.
func Reassemble(stream []byte) ([]byte, error) {
	payload := make(map[int64][]byte)
	type ref struct {
		id int64
	}
	var order []ref
	p := stream
	for len(p) > 0 {
		kind := p[0]
		p = p[1:]
		idU, n := binary.Uvarint(p)
		if n <= 0 {
			return nil, errors.New("dedup: bad id varint")
		}
		id := int64(idU)
		p = p[n:]
		switch kind {
		case recUnique:
			sz, n := binary.Uvarint(p)
			if n <= 0 {
				return nil, errors.New("dedup: bad size varint")
			}
			p = p[n:]
			if uint64(len(p)) < sz {
				return nil, errors.New("dedup: truncated payload")
			}
			r := flate.NewReader(bytes.NewReader(p[:sz]))
			raw, err := io.ReadAll(r)
			if err != nil {
				return nil, err
			}
			payload[id] = raw
			p = p[sz:]
			order = append(order, ref{id})
		case recDup:
			order = append(order, ref{id})
		default:
			return nil, errors.New("dedup: unknown record kind")
		}
	}
	var out []byte
	for _, r := range order {
		d, ok := payload[r.id]
		if !ok {
			return nil, errors.New("dedup: dangling duplicate reference")
		}
		out = append(out, d...)
	}
	return out, nil
}
