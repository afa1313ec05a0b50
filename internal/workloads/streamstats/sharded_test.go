package streamstats

import (
	"fmt"
	"testing"

	"repro/swan"
)

// TestShardedDigestDeterministic sweeps the sharded multi-sensor
// pipeline over shard counts and worker counts: the full Result — per-sensor moments and the
// order-dependent EWMA — must be bit-identical to the serial elision
// (RunShardedSerial, the same interleaved stream folded in arrival
// order) in every configuration.
func TestShardedDigestDeterministic(t *testing.T) {
	samples := 100_000
	if testing.Short() {
		samples = 20_000
	}
	cfg := ShardedConfig{Config: Config{Samples: samples, Sensors: 16, SegCap: 512}}
	want := RunShardedSerial(cfg).Digest()
	for _, shards := range []int{1, 2, 4} {
		for _, workers := range []int{1, 4, 8} {
			// "policy=steal" keeps the case names the sweep had when it also
			// ran a second scheduler; the work-stealing one is the only one now.
			t.Run(fmt.Sprintf("policy=steal/shards=%d/workers=%d", shards, workers), func(t *testing.T) {
				c := cfg
				c.Shards, c.Bound = shards, 128
				got := RunSharded(swan.New(workers), c).Digest()
				if got != want {
					t.Fatalf("digest %s, serial elision has %s", got, want)
				}
			})
		}
	}
}

// TestShardedPacingHooks drives the Arrive/Complete hooks the latency
// harness uses: every sample's stamp must round-trip to Complete, in
// arrival order.
func TestShardedPacingHooks(t *testing.T) {
	const n = 5_000
	var next int64
	var seen []int64
	cfg := ShardedConfig{
		Config:   Config{Samples: n, Sensors: 5, SegCap: 256},
		Shards:   2,
		Arrive:   func(c *swan.Frame, i int) int64 { return int64(i) },
		Complete: func(stamp int64) { seen = append(seen, stamp) },
	}
	res := RunSharded(swan.New(4), cfg)
	if int(res.Count) != n || len(seen) != n {
		t.Fatalf("count %d, %d completions, want %d", res.Count, len(seen), n)
	}
	for _, s := range seen {
		if s != next {
			t.Fatalf("completion stamp %d, want %d (arrival order broken)", s, next)
		}
		next++
	}
}
