package bzip2

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/swan"
)

func TestBWTRoundTrip(t *testing.T) {
	cases := [][]byte{
		[]byte("banana"),
		[]byte("a"),
		[]byte("abracadabra abracadabra"),
		[]byte("aaaaaaaa"),
		[]byte("abababab"), // periodic: identical rotations
		{0, 255, 0, 255, 1},
		nil,
	}
	for _, c := range cases {
		l, p := bwt(c)
		got := unbwt(l, p)
		if !bytes.Equal(got, c) {
			t.Errorf("bwt round trip failed for %q: got %q (L=%q, p=%d)", c, got, l, p)
		}
	}
}

func TestBWTKnownVector(t *testing.T) {
	l, p := bwt([]byte("banana"))
	if string(l) != "nnbaaa" || p != 3 {
		t.Fatalf("bwt(banana) = %q,%d; want nnbaaa,3", l, p)
	}
}

func TestBWTQuickRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		if len(data) > 4096 {
			data = data[:4096]
		}
		l, p := bwt(data)
		return bytes.Equal(unbwt(l, p), data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMTFRoundTrip(t *testing.T) {
	data := []byte("mississippi river runs")
	if !bytes.Equal(unmtf(mtf(data)), data) {
		t.Fatal("mtf round trip failed")
	}
}

func TestMTFKnownBehavior(t *testing.T) {
	// Repeated symbols become zeros after the first occurrence.
	out := mtf([]byte{'a', 'a', 'a'})
	if out[1] != 0 || out[2] != 0 {
		t.Fatalf("mtf(aaa) = %v; repeats must map to 0", out)
	}
}

func TestRLERoundTrip(t *testing.T) {
	cases := [][]byte{
		nil,
		{1},
		{1, 1, 1, 1},
		{1, 1, 1, 1, 1, 1, 1, 1, 1},
		bytes.Repeat([]byte{7}, 1000),
		{1, 2, 3, 4, 4, 4, 4, 4, 5},
	}
	for _, c := range cases {
		if got := unrle(rle(c)); !bytes.Equal(got, c) {
			t.Errorf("rle round trip failed for len=%d: got len=%d", len(c), len(got))
		}
	}
}

func TestRLEQuick(t *testing.T) {
	f := func(data []byte) bool { return bytes.Equal(unrle(rle(data)), data) }
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRLECompressesRuns(t *testing.T) {
	long := bytes.Repeat([]byte{0}, 500)
	if enc := rle(long); len(enc) >= len(long)/10 {
		t.Fatalf("rle of 500-byte run is %d bytes; not compressing", len(enc))
	}
}

func TestHuffmanRoundTrip(t *testing.T) {
	data := []byte("the quick brown fox jumps over the lazy dog 1234567890")
	lengths, _, enc := huffEncode(data)
	dec, err := huffDecode(&lengths, enc, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec, data) {
		t.Fatal("huffman round trip failed")
	}
}

func TestHuffmanSingleSymbol(t *testing.T) {
	data := bytes.Repeat([]byte{'x'}, 100)
	lengths, _, enc := huffEncode(data)
	dec, err := huffDecode(&lengths, enc, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec, data) {
		t.Fatal("single-symbol round trip failed")
	}
}

func TestHuffmanQuick(t *testing.T) {
	f := func(data []byte) bool {
		lengths, _, enc := huffEncode(data)
		dec, err := huffDecode(&lengths, enc, len(data))
		return err == nil && bytes.Equal(dec, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHuffmanCompresses(t *testing.T) {
	data := GenerateInput(1, 20000)
	_, _, enc := huffEncode(data)
	if len(enc) >= len(data) {
		t.Fatalf("huffman output %d >= input %d on skewed text", len(enc), len(data))
	}
}

func TestBlockRoundTrip(t *testing.T) {
	data := GenerateInput(2, 50000)
	enc := CompressBlock(data)
	dec, err := DecompressBlock(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec, data) {
		t.Fatal("block round trip failed")
	}
	if len(enc) >= len(data) {
		t.Errorf("compressed %d >= original %d; pipeline should shrink text", len(enc), len(data))
	}
}

func TestBlockEmpty(t *testing.T) {
	enc := CompressBlock(nil)
	dec, err := DecompressBlock(enc)
	if err != nil || len(dec) != 0 {
		t.Fatalf("empty block round trip: %v, %v", dec, err)
	}
}

func TestBlockBinaryData(t *testing.T) {
	r := rng.New(9)
	data := make([]byte, 10000)
	for i := range data { // incompressible
		data[i] = byte(r.Uint64())
	}
	dec, err := DecompressBlock(CompressBlock(data))
	if err != nil || !bytes.Equal(dec, data) {
		t.Fatal("binary block round trip failed")
	}
}

func TestDecompressBlockErrors(t *testing.T) {
	if _, err := DecompressBlock(nil); err == nil {
		t.Error("nil block accepted")
	}
	if _, err := DecompressBlock([]byte{99}); err == nil {
		t.Error("bad format byte accepted")
	}
	if _, err := DecompressBlock([]byte{1, 5}); err == nil {
		t.Error("truncated header accepted")
	}
}

func TestSplitBlocks(t *testing.T) {
	data := make([]byte, 1000)
	blocks := SplitBlocks(data, 300)
	if len(blocks) != 4 {
		t.Fatalf("got %d blocks, want 4", len(blocks))
	}
	if len(blocks[3]) != 100 {
		t.Fatalf("tail block %d bytes, want 100", len(blocks[3]))
	}
}

func TestSerialPipelineRoundTrip(t *testing.T) {
	data := GenerateInput(3, 100000)
	stream := RunSerial(data, 16*1024)
	dec, err := DecompressStream(stream)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec, data) {
		t.Fatal("serial pipeline round trip failed")
	}
}

func TestAllPipelinesAgree(t *testing.T) {
	data := GenerateInput(4, 80000)
	const bs = 8 * 1024
	ref := RunSerial(data, bs)
	rt := swan.New(8)
	if got := RunObjects(rt, data, bs); !bytes.Equal(got, ref) {
		t.Error("objects pipeline output differs from serial elision")
	}
	if got := RunHyperqueue(rt, data, bs, 8); !bytes.Equal(got, ref) {
		t.Error("hyperqueue pipeline output differs from serial elision")
	}
	if got := RunHyperqueueLoopSplit(rt, data, bs, 8, 4); !bytes.Equal(got, ref) {
		t.Error("loop-split pipeline output differs from serial elision")
	}
}

func TestPipelinesAtOneWorker(t *testing.T) {
	data := GenerateInput(5, 40000)
	const bs = 8 * 1024
	ref := RunSerial(data, bs)
	rt := swan.New(1)
	if got := RunHyperqueue(rt, data, bs, 4); !bytes.Equal(got, ref) {
		t.Error("hyperqueue at 1 worker differs")
	}
	if got := RunObjects(rt, data, bs); !bytes.Equal(got, ref) {
		t.Error("objects at 1 worker differs")
	}
}

func TestGenerateInputDeterministic(t *testing.T) {
	a := GenerateInput(7, 1000)
	b := GenerateInput(7, 1000)
	if !bytes.Equal(a, b) {
		t.Fatal("input generation not deterministic")
	}
	c := GenerateInput(8, 1000)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds gave identical input")
	}
}

func TestBWTRadixMatchesSort(t *testing.T) {
	r := rng.New(77)
	cases := [][]byte{
		[]byte("banana"), []byte("abababab"), []byte("aaaa"), {0}, nil,
	}
	for i := 0; i < 30; i++ {
		b := make([]byte, 1+r.Intn(2000))
		for j := range b {
			b[j] = byte(r.Uint64())
			if i%3 == 0 { // low-entropy variant: long runs
				b[j] &= 3
			}
		}
		cases = append(cases, b)
	}
	for _, c := range cases {
		lr, pr := bwt(c)
		ls, ps := bwtSort(c)
		if !bytes.Equal(lr, ls) {
			t.Fatalf("radix and sort BWT outputs differ for len=%d", len(c))
		}
		// primary may differ for periodic inputs (tie order among
		// identical rotations); both must decode correctly.
		if !bytes.Equal(unbwt(lr, pr), c) {
			t.Fatalf("radix BWT round trip failed for len=%d", len(c))
		}
		if !bytes.Equal(unbwt(ls, ps), c) {
			t.Fatalf("sort BWT round trip failed for len=%d", len(c))
		}
	}
}

func TestBWTRadixQuick(t *testing.T) {
	f := func(data []byte) bool {
		if len(data) > 4096 {
			data = data[:4096]
		}
		l, p := bwt(data)
		return bytes.Equal(unbwt(l, p), data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBWTRadix(b *testing.B) {
	data := GenerateInput(3, 64*1024)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		bwt(data)
	}
}

func BenchmarkBWTSort(b *testing.B) {
	data := GenerateInput(3, 64*1024)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		bwtSort(data)
	}
}

func TestParallelDecompressorCorrupt(t *testing.T) {
	if _, err := DecompressStream([]byte{0xff, 0xff, 0xff}); err == nil {
		t.Fatal("corrupt stream accepted")
	}
	data := GenerateInput(12, 50000)
	stream := RunSerial(data, 8*1024)
	stream[len(stream)/2] ^= 0x5a // corrupt a block body
	if got, err := DecompressStream(stream); err == nil && bytes.Equal(got, data) {
		t.Fatal("silently decoded corrupted stream to original data")
	}
}

func TestFullCompressDecompressParallel(t *testing.T) {
	data := GenerateInput(13, 300000)
	rt := swan.New(8)
	stream := RunHyperqueue(rt, data, 32*1024, 8)
	got, err := DecompressStream(stream)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("compress→decompress round trip failed")
	}
}
