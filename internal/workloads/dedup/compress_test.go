package dedup

import (
	"bytes"
	"compress/flate"
	"sync"
	"testing"

	"repro/internal/rng"
)

// freshDeflate is Compress's reference: a writer made for this one input.
func freshDeflate(t *testing.T, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, flate.DefaultCompression)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func idleCompressors() int {
	compressors.mu.Lock()
	defer compressors.mu.Unlock()
	return len(compressors.free)
}

func dropIdleCompressors() {
	compressors.mu.Lock()
	clear(compressors.free)
	compressors.free = compressors.free[:0]
	compressors.mu.Unlock()
}

// TestCompressMatchesFreshWriter: a reused writer emits what a fresh
// one would, whatever it compressed before — small after large, large
// after small, text after noise.
func TestCompressMatchesFreshWriter(t *testing.T) {
	noise := make([]byte, 16<<10)
	r := rng.New(9)
	for i := range noise {
		noise[i] = byte(r.Uint64())
	}
	inputs := map[string][]byte{
		"empty":                 {},
		"1 byte":                {'x'},
		"4 KiB text":            GenerateInput(5, 4<<10, 0),
		"16 KiB incompressible": noise,
	}
	order := []string{"16 KiB incompressible", "empty", "4 KiB text", "1 byte", "16 KiB incompressible", "4 KiB text", "empty", "1 byte"}
	for _, name := range order {
		c := &Chunk{Data: inputs[name]}
		Compress(c)
		if want := freshDeflate(t, c.Data); !bytes.Equal(c.Compressed, want) {
			t.Errorf("%s: %d bytes differ from a fresh writer's %d", name, len(c.Compressed), len(want))
		}
	}
}

// TestCompressAllocs: once a writer is idle, compressing a unique chunk
// allocates only the stored copy, and a duplicate allocates nothing.
func TestCompressAllocs(t *testing.T) {
	c := &Chunk{Data: GenerateInput(6, 4<<10, 0)}
	Compress(c) // warm-up: leaves an idle writer whose buffer fits
	if n := testing.AllocsPerRun(50, func() { Compress(c) }); n != 1 {
		t.Errorf("unique chunk: %v allocs per Compress, want 1", n)
	}
	d := &Chunk{Data: c.Data, Dup: true}
	if n := testing.AllocsPerRun(50, func() { Compress(d) }); n != 0 {
		t.Errorf("duplicate chunk: %v allocs per Compress, want 0", n)
	}
}

// TestCompressFreeListBounded: however many compressions overlap, the
// free list keeps at most maxIdleCompressors writers.
func TestCompressFreeListBounded(t *testing.T) {
	t.Cleanup(dropIdleCompressors)
	data := GenerateInput(7, 4<<10, 0)
	want := freshDeflate(t, data)
	const n = 2 * maxIdleCompressors
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			c := &Chunk{Data: data}
			Compress(c)
			if !bytes.Equal(c.Compressed, want) {
				t.Error("concurrent Compress differs from a fresh writer")
			}
		}()
	}
	close(start)
	wg.Wait()
	if got := idleCompressors(); got > maxIdleCompressors {
		t.Errorf("after %d concurrent calls: %d idle writers, cap %d", n, got, maxIdleCompressors)
	}

	// The worst case, deterministically: n writers returned in a row.
	// Empty pairs stand in for writers (only the count matters), and the
	// cleanup drops them before anything compresses.
	dropIdleCompressors()
	for i := 0; i < n; i++ {
		putCompressor(&compressor{})
	}
	if got := idleCompressors(); got != maxIdleCompressors {
		t.Errorf("%d writers returned: %d kept, want the cap %d", n, got, maxIdleCompressors)
	}
}
