package swan_test

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/swan"
)

// mix64 is a cheap invertible hash (splitmix64 finalizer); the shard
// tests use it both as the transform under test and as the partition
// key, so routing is content-based and uneven across shards.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// runSharded pushes vals through a Sharded fan-out and returns the
// egress stream in order.
func runSharded(workers, shards, bound int, vals []uint64) []uint64 {
	got := make([]uint64, 0, len(vals))
	rt := swan.New(workers)
	rt.Run(func(f *swan.Frame) {
		s := swan.NewSharded(f, swan.ShardConfig{Shards: shards, Bound: bound},
			func(v uint64) uint64 { return v },
			func(c *swan.Frame, shard int) func(uint64) uint64 {
				return func(v uint64) uint64 { return mix64(v) }
			})
		f.Spawn(func(c *swan.Frame) {
			p := s.In().BindPush(c)
			p.PushSlice(vals)
		}, swan.Push(s.In()))
		s.Launch(f)
		f.Spawn(func(c *swan.Frame) {
			p := s.Out().BindPop(c)
			for !p.Empty() {
				got = append(got, p.Pop())
			}
		}, swan.Pop(s.Out()))
		f.Sync()
	})
	return got
}

// TestShardedBitDeterministic sweeps shards × workers: the egress stream
// must be identical, element for element, to the serial elision (a plain
// loop applying the transform in arrival order) in every configuration.
func TestShardedBitDeterministic(t *testing.T) {
	const n = 20000
	vals := make([]uint64, n)
	x := uint64(42)
	for i := range vals {
		x = mix64(x)
		vals[i] = x
	}
	want := make([]uint64, n)
	for i, v := range vals {
		want[i] = mix64(v)
	}
	for _, shards := range []int{1, 2, 4} {
		for _, workers := range []int{1, 4, 8} {
			got := runSharded(workers, shards, 256, vals)
			if len(got) != n {
				t.Fatalf("shards=%d workers=%d: %d results, want %d",
					shards, workers, len(got), n)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("shards=%d workers=%d: result[%d] = %#x, want %#x",
						shards, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// TestShardedTinyBoundsAndCounts probes the deadlock-prone corners:
// bound 1, more shards than values, a single value, and an empty stream.
func TestShardedTinyBoundsAndCounts(t *testing.T) {
	for _, tc := range []struct {
		n, shards, bound, workers int
	}{
		{0, 2, 1, 1},
		{1, 4, 1, 1},
		{100, 3, 1, 1},
		{100, 5, 2, 4},
	} {
		vals := make([]uint64, tc.n)
		for i := range vals {
			vals[i] = uint64(i)
		}
		got := runSharded(tc.workers, tc.shards, tc.bound, vals)
		if len(got) != tc.n {
			t.Fatalf("%+v: %d results, want %d", tc, len(got), tc.n)
		}
		for i, v := range vals {
			if got[i] != mix64(v) {
				t.Fatalf("%+v: result[%d] = %#x, want %#x", tc, i, got[i], mix64(v))
			}
		}
	}
}

// shardBatch mirrors the fan-out's batch size: every stage moves up to
// min(256, Bound) elements per bulk transfer (core.Sharded.Launch).
func shardBatch(bound int) int { return min(256, bound) }

// fanOutHolds renders what each queue of a named fan-out holds, for the
// watchdogs below: values the stages have popped but not yet pushed on
// are the gaps between one queue's popped and the next one's pushed.
func fanOutHolds(rt *swan.Runtime) string {
	var b strings.Builder
	for _, q := range swan.Stats(rt).Queues {
		fmt.Fprintf(&b, "\n  %-16s pushed %4d popped %4d (bound %d)", q.Name, q.Pushed, q.Popped, q.Bound)
	}
	return b.String()
}

// TestShardedBackpressureIsolation proves the per-shard isolation claim
// at tiny bounds: with one shard's worker gated shut on its first value,
// the other shard keeps processing — a blocked sibling stalls nothing but
// itself — yet only boundedly far ahead, the whole fan-out pins at most
// 2·Bound + 3·batch values per shard, and after the gate opens the egress
// stream is still in arrival order. The stream alternates between two
// shards. Jamming shard 0 parks the router on the first span it flushes,
// with the other shard's share of that batch still staged; jamming
// shard 1, the mirror, parks it on the last span, the other's already out.
func TestShardedBackpressureIsolation(t *testing.T) {
	for _, bound := range []int{1, 2, 8} {
		for _, jam := range []int{0, 1} {
			t.Run(fmt.Sprintf("bound=%d/jam=%d", bound, jam), func(t *testing.T) {
				testBackpressureIsolation(t, bound, jam)
			})
		}
	}
}

func testBackpressureIsolation(t *testing.T, bound, jam int) {
	const shards = 2
	const perShard = 64
	batch := shardBatch(bound)
	gate := make(chan struct{})
	var freeDone atomic.Int64 // values the free shard's stage function has seen
	var got []uint64
	rt := swan.New(4)
	done := make(chan struct{})
	go func() {
		defer close(done)
		rt.Run(func(f *swan.Frame) {
			s := swan.NewSharded(f, swan.ShardConfig{Shards: shards, Bound: bound, Name: "iso"},
				func(v uint64) uint64 { return v }, // even → shard 0, odd → shard 1
				func(c *swan.Frame, shard int) func(uint64) uint64 {
					first := true
					return func(v uint64) uint64 {
						if shard == jam && first {
							first = false
							c.Block(func() { <-gate })
						}
						if shard != jam {
							freeDone.Add(1)
						}
						return v
					}
				})
			f.Spawn(func(c *swan.Frame) {
				p := s.In().BindPush(c)
				for i := 0; i < shards*perShard; i++ {
					p.Push(uint64(i))
				}
			}, swan.Push(s.In()))
			s.Launch(f)
			f.Spawn(func(c *swan.Frame) {
				p := s.Out().BindPop(c)
				for !p.Empty() {
					got = append(got, p.Pop())
				}
			}, swan.Pop(s.Out()))
			f.Sync()
		})
	}()

	// With the jammed shard's first value never finishing, the merger is
	// stuck on it (arrival order), so the free shard runs until its result
	// queue is full — not zero. It was handed every value routed before
	// the batch on which the router parked, and its share of that batch
	// too when its span is flushed first (jam = 1): the jammed shard takes
	// at least Bound + 1 values before the router parks, so the free one
	// gets at least that many less the half batch that may stay staged.
	atLeast := int64(min(bound, bound+1-batch/2))
	if jam == 1 {
		atLeast = int64(bound)
	}
	deadline := time.Now().Add(10 * time.Second)
	for freeDone.Load() < atLeast {
		if time.Now().After(deadline) {
			t.Fatalf("free shard processed only %d values while shard %d was blocked; want >= %d%s",
				freeDone.Load(), jam, atLeast, fanOutHolds(rt))
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // let every stage run into its bound
	// Isolation is bounded, too. The free shard's stage function runs only
	// with a result credit in hand, so it ran at most Bound times plus what
	// the merger took out of the result queue — one prefetched batch.
	if n := freeDone.Load(); n > int64(bound+batch) {
		t.Errorf("free shard processed %d values while the merger was stuck; bound %d caps it at %d",
			n, bound, bound+batch)
	}
	// And the fan-out as a whole pins at most 2·Bound + 3·batch values per
	// shard: two full queues, the router's staged span, the worker's
	// popped batch and the merger's prefetched results.
	var taken, merged uint64
	for _, q := range swan.Stats(rt).Queues {
		switch q.Name {
		case "iso.in":
			taken = q.Popped
		case "iso.out":
			merged = q.Pushed
		}
	}
	if held, limit := taken-merged, uint64(shards*(2*bound+3*batch)); held > limit {
		t.Errorf("fan-out holds %d values with shard %d blocked; bound %d caps it at %d%s",
			held, jam, bound, limit, fanOutHolds(rt))
	}
	close(gate)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("pipeline did not drain after the gate opened%s", fanOutHolds(rt))
	}
	if len(got) != shards*perShard {
		t.Fatalf("%d results, want %d", len(got), shards*perShard)
	}
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("result[%d] = %d, want %d (arrival order broken)", i, v, i)
		}
	}
}

// TestShardedEagerPublication pins that a shard worker publishes result
// i before it calls the stage function on element i+1, however many
// elements its bulk pop handed it: the stage function's call on a
// shard's next element blocks until the egress consumer has received
// that shard's previous one. The 64 elements are in In() before Launch,
// so the router's and each worker's first PopInto take their whole share
// at once; a worker that computed its batch and then published it would
// hang here on its second element.
func TestShardedEagerPublication(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, shards := range []int{1, 2} {
			// "policy=steal" keeps the case names the sweep had when it also
			// ran a second scheduler; the work-stealing one is the only one now.
			t.Run(fmt.Sprintf("policy=steal/workers=%d/shards=%d", workers, shards), func(t *testing.T) {
				testEagerPublication(t, workers, shards)
			})
		}
	}
}

func testEagerPublication(t *testing.T, workers, shards int) {
	const n = 64
	vals := make([]uint64, n)
	received := make([]chan struct{}, n) // closed when the egress consumer has element i
	for i := range vals {
		vals[i] = uint64(i)
		received[i] = make(chan struct{})
	}
	inHand := make([]atomic.Int64, shards) // the element each worker's stage function is in, -1 when in none
	for i := range inHand {
		inHand[i].Store(-1)
	}
	var egress atomic.Int64
	rt := swan.New(workers)
	done := make(chan struct{})
	go func() {
		defer close(done)
		rt.Run(func(f *swan.Frame) {
			s := swan.NewSharded(f, swan.ShardConfig{Shards: shards, Name: "eager"},
				func(v uint64) uint64 { return v },
				func(c *swan.Frame, shard int) func(uint64) uint64 {
					return func(v uint64) uint64 {
						inHand[shard].Store(int64(v))
						if prev := int(v) - shards; prev >= 0 { // this shard's previous element
							c.Block(func() { <-received[prev] })
						}
						inHand[shard].Store(-1)
						return v
					}
				})
			in := s.In().BindPush(f)
			in.PushSlice(vals)
			s.Launch(f)
			f.Spawn(func(c *swan.Frame) {
				p := s.Out().BindPop(c)
				for !p.Empty() {
					v := p.Pop()
					if v != uint64(egress.Load()) {
						t.Errorf("egress[%d] = %d (arrival order broken)", egress.Load(), v)
					}
					close(received[v])
					egress.Add(1)
				}
			}, swan.Pop(s.Out()))
			f.Sync()
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		hands := ""
		for sh := range inHand {
			hands += fmt.Sprintf("\n  worker %d in stage function on element %d", sh, inHand[sh].Load())
		}
		t.Fatalf("fan-out hung with %d of %d elements at the egress: a worker is holding back finished results%s%s",
			egress.Load(), n, hands, fanOutHolds(rt))
	}
	if egress.Load() != n {
		t.Fatalf("%d results, want %d", egress.Load(), n)
	}
}

// TestShardedSteadyStateAllocs runs the fan-out at two stream lengths on
// one warmed runtime and wants the same allocations from both: what a run
// allocates is its set-up — tasks, queues, the per-Launch batch buffers —
// and nothing per element or per batch. It does so at 1, 2 and 4 shards.
// One worker on one P, so that no thief and no second core skews the
// count, and a stream that fits the segment pool (In() and the route
// queue are unbounded). Parks allocate nothing, so however the stages
// interleave the two lengths allocate the same; the best of several runs
// drops what the Go runtime adds now and then (a sudog, a timer). The
// short stream runs first: every run abandons one segment per queue, and
// after the long stream the short one would refill those from the fuller
// pools for a while instead of allocating. At 2 shards one allocation per
// batch in one stage would add 54, one per element 14 000.
func TestShardedSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("exact Mallocs counts are not meaningful under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection mid-run skews the Mallocs delta
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rt := swan.New(1)
			var count int
			run := func(n int) {
				count = 0
				rt.Run(func(f *swan.Frame) {
					s := swan.NewSharded(f, swan.ShardConfig{Shards: shards, Bound: 1 << 14, SegCap: 1024},
						func(v uint64) uint64 { return v },
						func(c *swan.Frame, shard int) func(uint64) uint64 {
							return func(v uint64) uint64 { return v + 1 }
						})
					f.Spawn(func(c *swan.Frame) {
						p := s.In().BindPush(c)
						for i := 0; i < n; i++ {
							p.Push(uint64(i))
						}
					}, swan.Push(s.In()))
					s.Launch(f)
					f.Spawn(func(c *swan.Frame) {
						p := s.Out().BindPop(c)
						for !p.Empty() {
							p.Pop()
							count++
						}
					}, swan.Pop(s.Out()))
					f.Sync()
				})
				if count != n {
					t.Fatalf("%d results, want %d", count, n)
				}
			}
			// fewest is the least one run of n elements allocates, once the
			// pools have settled at that length.
			fewest := func(n int) uint64 {
				for i := 0; i < 3; i++ {
					run(n)
				}
				least := ^uint64(0)
				var before, after runtime.MemStats
				for i := 0; i < 20; i++ {
					runtime.ReadMemStats(&before)
					run(n)
					runtime.ReadMemStats(&after)
					least = min(least, after.Mallocs-before.Mallocs)
				}
				return least
			}
			const short, long = 2_000, 16_000
			allocsShort, allocsLong := fewest(short), fewest(long)
			if allocsLong != allocsShort {
				t.Errorf("%d allocations for %d elements, %d for %d: %.4f per extra element, want 0",
					allocsLong, long, allocsShort, short, (float64(allocsLong)-float64(allocsShort))/(long-short))
			}
		})
	}
}

// TestShardedMetrics checks that a named fan-out exposes its per-shard
// queues in the stats registry.
func TestShardedMetrics(t *testing.T) {
	rt := swan.New(2)
	rt.Run(func(f *swan.Frame) {
		s := swan.NewSharded(f, swan.ShardConfig{Shards: 2, Bound: 16, Name: "fan"},
			func(v uint64) uint64 { return v },
			func(c *swan.Frame, shard int) func(uint64) uint64 {
				return func(v uint64) uint64 { return v }
			})
		f.Spawn(func(c *swan.Frame) {
			p := s.In().BindPush(c)
			for i := 0; i < 100; i++ {
				p.Push(uint64(i))
			}
		}, swan.Push(s.In()))
		s.Launch(f)
		f.Spawn(func(c *swan.Frame) {
			p := s.Out().BindPop(c)
			for !p.Empty() {
				p.Pop()
			}
		}, swan.Pop(s.Out()))
		f.Sync()

		want := map[string]bool{
			"fan.in": false, "fan.route": false, "fan.out": false,
			"fan.shard0.in": false, "fan.shard0.out": false,
			"fan.shard1.in": false, "fan.shard1.out": false,
		}
		for _, qs := range swan.Stats(rt).Queues {
			if _, ok := want[qs.Name]; ok {
				want[qs.Name] = true
			}
		}
		for name, seen := range want {
			if !seen {
				t.Errorf("queue %q missing from stats registry", name)
			}
		}
	})
}
