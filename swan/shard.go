package swan

import (
	"repro/internal/core"
)

// Sharded is the deterministic shard fan-out: a pipeline-of-pipelines
// that scales a stream past the hyperqueue's single consumer by
// partitioning it over N per-shard bounded hyperqueues and merging the
// per-shard results back into arrival order. The consumer role is never
// split — every queue in the construction keeps exactly one consumer
// task — so the egress stream is byte-identical for any worker count,
// shard count, and schedule (see ARCHITECTURE.md, "Sharded
// pipelines").
//
// Usage shape (program order matters for visibility):
//
//	s := swan.NewSharded(f, swan.ShardConfig{Shards: 4},
//		func(v Item) uint64 { return v.Key() },         // partition
//		func(c *swan.Frame, shard int) func(Item) Out { // per-shard transform
//			state := newShardState()
//			return func(v Item) Out { return state.apply(v) }
//		})
//	f.Spawn(producer, swan.Push(s.In()))  // 1. producers first
//	s.Launch(f)                           // 2. router/workers/merger
//	f.Spawn(consumer, swan.Pop(s.Out()))  // 3. egress consumer last
//	f.Sync()
//
// Teardown: Drain(f, d) waits up to d for the merger to retire (the
// whole fan-out has quiesced), returning ErrTimeout or the scope's
// cancel cause if it fires first; Drained is the non-blocking probe;
// Fail(err) poisons every queue in the construction so a wedged
// fan-out's producers and consumers unwind instead of parking forever.
type Sharded[I, O any] = core.Sharded[I, O]

// ShardConfig configures NewSharded: shard count, per-shard queue bound
// (the backpressure isolation budget — one slow shard blocks only its
// own router pushes once its bound fills), segment capacity, and an
// optional metrics name that exposes per-shard occupancy through the
// Named queue registry.
type ShardConfig = core.ShardConfig

// DefaultShardBound is the per-shard queue bound used when ShardConfig
// leaves Bound zero.
const DefaultShardBound = core.DefaultShardBound

// NewSharded creates a shard fan-out owned by the calling task's frame.
// part maps each value to a partition key, reduced mod Shards: equal
// keys always land on the same shard and are processed in arrival
// order. work builds the per-shard transform inside the shard's
// consumer task (bind reducer handles or other per-task state there);
// workerDeps are granted to every shard worker in addition to its queue
// privileges. See Sharded for the spawn-order discipline.
func NewSharded[I, O any](
	f *Frame,
	cfg ShardConfig,
	part func(I) uint64,
	work func(f *Frame, shard int) func(I) O,
	workerDeps ...Dep,
) *Sharded[I, O] {
	return core.NewSharded[I, O](f, cfg, part, work, workerDeps...)
}
