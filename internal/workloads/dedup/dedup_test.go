package dedup

import (
	"bytes"
	"testing"

	"repro/swan"
)

func testData(t *testing.T) []byte {
	t.Helper()
	size := 512 * 1024
	if testing.Short() {
		size = 128 * 1024
	}
	return GenerateInput(42, size, 0.5)
}

func smallOpts() Options {
	return Options{CoarseAvg: 16 * 1024, FineAvg: 1024, MaxFactor: 4}
}

func TestSplitCoversInput(t *testing.T) {
	data := testData(t)
	chunks := split(data, 4096, 4)
	var total int
	for _, c := range chunks {
		total += len(c)
	}
	if total != len(data) {
		t.Fatalf("chunks cover %d bytes, input is %d", total, len(data))
	}
	var rejoined []byte
	for _, c := range chunks {
		rejoined = append(rejoined, c...)
	}
	if !bytes.Equal(rejoined, data) {
		t.Fatal("chunk concatenation differs from input")
	}
}

func TestSplitRespectsMax(t *testing.T) {
	data := testData(t)
	const avg, factor = 1024, 4
	for i, c := range split(data, avg, factor) {
		if len(c) > avg*factor {
			t.Fatalf("chunk %d has %d bytes, max is %d", i, len(c), avg*factor)
		}
	}
}

func TestSplitContentDefined(t *testing.T) {
	// Content-defined chunking must resynchronize: inserting a prefix
	// shifts data but most boundaries (and thus chunk hashes) survive.
	data := testData(t)[:128*1024]
	shifted := append([]byte("PREFIXPREFIXPREFIX"), data...)
	a := split(data, 1024, 8)
	b := split(shifted, 1024, 8)
	set := make(map[string]bool, len(a))
	for _, c := range a {
		set[string(c)] = true
	}
	match := 0
	for _, c := range b {
		if set[string(c)] {
			match++
		}
	}
	if match < len(a)/2 {
		t.Fatalf("only %d/%d chunks survived a prefix shift; chunking is not content-defined", match, len(a))
	}
}

func TestSplitDeterministic(t *testing.T) {
	data := testData(t)
	a := split(data, 2048, 4)
	b := split(data, 2048, 4)
	if len(a) != len(b) {
		t.Fatal("nondeterministic chunk count")
	}
}

func TestStoreInternFirstWins(t *testing.T) {
	s := NewStore()
	h := [32]byte{1, 2, 3}
	id1, dup1 := s.Intern(h)
	id2, dup2 := s.Intern(h)
	if dup1 || !dup2 || id1 != id2 {
		t.Fatalf("Intern: (%d,%v) then (%d,%v)", id1, dup1, id2, dup2)
	}
	h2 := [32]byte{9}
	id3, dup3 := s.Intern(h2)
	if dup3 || id3 == id1 {
		t.Fatalf("distinct hash shares id: %d vs %d", id3, id1)
	}
}

func TestSerialRoundTrip(t *testing.T) {
	data := testData(t)
	res := RunSerial(data, smallOpts())
	got, err := Reassemble(res.Stream)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("serial round trip failed")
	}
	if len(res.Stream) >= len(data) {
		t.Errorf("output %d >= input %d: dedup+compress achieved nothing", len(res.Stream), len(data))
	}
}

func TestSerialDeterministic(t *testing.T) {
	data := testData(t)
	a := RunSerial(data, smallOpts())
	b := RunSerial(data, smallOpts())
	if !bytes.Equal(a.Stream, b.Stream) || a.Checksum != b.Checksum {
		t.Fatal("serial run not deterministic")
	}
}

func TestDuplicatesDetected(t *testing.T) {
	data := testData(t) // dupRatio 0.5 ⇒ plenty of duplicates
	res := RunSerial(data, smallOpts())
	var uniq, dup int
	p := res.Stream
	for len(p) > 0 {
		kind := p[0]
		rest, err := skipRecord(p)
		if err != nil {
			t.Fatal(err)
		}
		if kind == recUnique {
			uniq++
		} else {
			dup++
		}
		p = rest
	}
	if dup == 0 {
		t.Fatal("no duplicates found in a half-duplicated stream")
	}
	t.Logf("unique=%d dup=%d (%.1f%% dedup)", uniq, dup, 100*float64(dup)/float64(uniq+dup))
}

func skipRecord(p []byte) ([]byte, error) {
	kind := p[0]
	p = p[1:]
	_, n := uvarint(p)
	p = p[n:]
	if kind == recUnique {
		sz, n := uvarint(p)
		p = p[n:]
		p = p[sz:]
	}
	return p, nil
}

func uvarint(p []byte) (uint64, int) {
	var v uint64
	for i := 0; ; i++ {
		b := p[i]
		v |= uint64(b&0x7f) << (7 * i)
		if b < 0x80 {
			return v, i + 1
		}
	}
}

func TestPthreadsRoundTrip(t *testing.T) {
	data := testData(t)
	res := RunPthreads(data, smallOpts(), 4, 16)
	got, err := Reassemble(res.Stream)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("pthreads round trip failed")
	}
}

func TestTBBRoundTrip(t *testing.T) {
	data := testData(t)
	res := RunTBB(data, smallOpts(), 4, 8)
	got, err := Reassemble(res.Stream)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("tbb round trip failed")
	}
}

func TestObjectsRoundTrip(t *testing.T) {
	data := testData(t)
	res := RunObjects(swan.New(8), data, smallOpts())
	got, err := Reassemble(res.Stream)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("objects round trip failed")
	}
}

func TestHyperqueueRoundTrip(t *testing.T) {
	data := testData(t)
	res := RunHyperqueue(swan.New(8), data, smallOpts(), 64)
	got, err := Reassemble(res.Stream)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("hyperqueue round trip failed")
	}
}

// TestHyperqueueAllocBudget charges a whole RunHyperqueue on 1 MiB to
// its fine chunks. Set-up — queues, hypermaps, the output stream's
// growth — costs a few hundred allocations in all, so 4 per chunk is
// what the chunks' own path may spend: the stored compressed copy, the
// shared slab, the runtime's per-task state. A DEFLATE writer made per
// chunk costs about 20.
func TestHyperqueueAllocBudget(t *testing.T) {
	data := GenerateInput(42, 1<<20, 0.5)
	o := DefaultOptions()
	chunks := 0
	for _, coarse := range Fragment(data, o) {
		chunks += len(Refine(coarse, o))
	}
	rt := swan.New(2)
	var res Result
	run := func() { res = RunHyperqueue(rt, data, o, 64) }
	run() // warm the segment pool, the task records and the idle writers
	per := testing.AllocsPerRun(3, run) / float64(chunks)
	t.Logf("%.2f allocs per fine chunk (%d chunks)", per, chunks)
	if per > 4 {
		t.Errorf("%.2f allocs per fine chunk, budget 4", per)
	}
	if want := RunSerial(data, o); !bytes.Equal(res.Stream, want.Stream) || res.Checksum != want.Checksum {
		t.Error("result differs from the serial elision")
	}
}

// TestElisionContentEquality: the deterministic part of every model's
// output is the sequence of chunk contents in stream order (the paper's
// queue semantics). For the baselines the unique/dup split depends on
// the shared store's arrival order — nondeterministic under parallelism
// exactly as in PARSEC — so the invariant checkable across all models
// is that runs reassemble to the same byte sequence with the serial
// elision's chunk boundaries. The hyperqueue model is held to the far
// stronger bit-exactness standard by TestHyperqueueBitDeterministic.
func TestElisionContentEquality(t *testing.T) {
	data := testData(t)
	ref := RunSerial(data, smallOpts())
	refChunks := recordCount(t, ref.Stream)
	for name, got := range map[string]Result{
		"hyperqueue-1w": RunHyperqueue(swan.New(1), data, smallOpts(), 64),
		"hyperqueue-8w": RunHyperqueue(swan.New(8), data, smallOpts(), 64),
		"objects-1w":    RunObjects(swan.New(1), data, smallOpts()),
	} {
		out, err := Reassemble(got.Stream)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("%s: reassembly differs from input", name)
		}
		if n := recordCount(t, got.Stream); n != refChunks {
			t.Fatalf("%s: %d records, serial elision has %d (chunking must not depend on schedule)", name, n, refChunks)
		}
	}
}

func recordCount(t *testing.T, stream []byte) int {
	t.Helper()
	n := 0
	for len(stream) > 0 {
		rest, err := skipRecord(stream)
		if err != nil {
			t.Fatal(err)
		}
		stream = rest
		n++
	}
	return n
}

// TestChunkOrderPreserved: even in parallel, the sequence of chunk ids in
// the output stream must reference the input's fine chunks in stream
// order (dup/unique flags may swap, but the reassembly proves order).
func TestChunkOrderPreservedUnderParallelism(t *testing.T) {
	data := testData(t)
	for _, run := range []func() Result{
		func() Result { return RunHyperqueue(swan.New(16), data, smallOpts(), 16) },
		func() Result { return RunPthreads(data, smallOpts(), 8, 8) },
		func() Result { return RunTBB(data, smallOpts(), 8, 16) },
		func() Result { return RunObjects(swan.New(16), data, smallOpts()) },
	} {
		got, err := Reassemble(run().Stream)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("parallel run scrambled chunk order")
		}
	}
}

func TestGenerateInputProperties(t *testing.T) {
	a := GenerateInput(1, 100000, 0.5)
	b := GenerateInput(1, 100000, 0.5)
	if !bytes.Equal(a, b) {
		t.Fatal("input not deterministic")
	}
	if len(a) != 100000 {
		t.Fatalf("size %d, want 100000", len(a))
	}
	noDup := GenerateInput(2, 100000, 0)
	resA := RunSerial(a, smallOpts())
	resB := RunSerial(noDup, smallOpts())
	if len(resA.Stream) >= len(resB.Stream) {
		t.Errorf("50%%-dup stream (%d) not smaller than 0%%-dup stream (%d)",
			len(resA.Stream), len(resB.Stream))
	}
}
