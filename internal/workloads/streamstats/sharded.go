package streamstats

import (
	"fmt"

	"repro/internal/rng"
	"repro/swan"
)

// Sample is one sensor observation flowing through the sharded pipeline:
// the multi-sensor stream arrives interleaved (round-robin across
// sensors, as a real ingestion front-end would see it) and is fanned out
// by sensor id. Stamp carries the open-loop harness's ingress timestamp
// (nanoseconds relative to the run start); it is zero when unpaced.
type Sample struct {
	Sensor int32
	Value  float64
	Stamp  int64
}

// ShardedConfig sizes a RunSharded: the base Config plus the shard
// fan-out shape and the optional open-loop pacing hooks
// (internal/bench wires them to its arrival generator and latency
// histogram; both nil means run flat out).
type ShardedConfig struct {
	Config
	Shards int // partitions (default 1)
	Bound  int // per-shard queue bound (default swan.DefaultShardBound)

	// Arrive, when set, is called in the producer before sample i is
	// pushed; it waits until the sample's arrival time and returns the
	// ingress stamp carried through the pipeline. It receives the
	// producer's frame so a pacing sleep can run inside a Frame.Block
	// region (not holding a worker slot) while the common no-wait case
	// stays a plain call.
	Arrive func(c *swan.Frame, i int) int64
	// Complete, when set, is called on the egress consumer after sample
	// processing (the EWMA fold) with the sample's ingress stamp.
	Complete func(stamp int64)
}

// RunSharded executes the multi-sensor pipeline through a swan.Sharded
// fan-out: one producer emits the interleaved sensor stream, samples are
// partitioned by sensor id (so each sensor's sequence stays in arrival
// order on one shard), shard workers fold the per-sensor moments into
// the reducer — each sensor owns one slot, so every runtime merge stays
// a disjoint union — and the egress consumer computes the
// order-dependent EWMA in arrival order. The Result digest is identical
// for any shard count, worker count, and schedule
// (RunShardedSerial is the elision).
func RunSharded(rt *swan.Runtime, cfg ShardedConfig) Result {
	cfg.defaults()
	if cfg.Sensors < 1 || cfg.Sensors > MaxSensors {
		panic(fmt.Sprintf("streamstats: sensors must be 1..%d", MaxSensors))
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	var res Result
	rt.Run(func(f *swan.Frame) {
		stats := swan.NewReducer(f, PartialsMonoid(), swan.HyperNamed("sensor.moments"))
		s := swan.NewSharded(f,
			swan.ShardConfig{Shards: cfg.Shards, Bound: cfg.Bound, SegCap: cfg.SegCap, Name: "sensor.sharded"},
			func(v Sample) uint64 { return uint64(v.Sensor) },
			func(c *swan.Frame, shard int) func(Sample) Sample {
				h := stats.BindReduce(c)
				// One closure per task, not per element: cur carries the
				// in-flight sample so the steady state stays alloc-free.
				var cur Sample
				upd := func(p *Partials) { p.S[cur.Sensor].Add(cur.Value) }
				return func(v Sample) Sample {
					cur = v
					h.Update(upd)
					return v
				}
			},
			swan.Reduce(stats))

		total := (cfg.Samples / cfg.Sensors) * cfg.Sensors
		f.Spawn(func(c *swan.Frame) {
			p := s.In().BindPush(c)
			rngs := make([]*rng.RNG, cfg.Sensors)
			for i := range rngs {
				rngs[i] = rng.New(uint64(i) + 1)
			}
			var stamp int64
			for i := 0; i < total; i++ {
				if cfg.Arrive != nil {
					stamp = cfg.Arrive(c, i)
				}
				sensor := i % cfg.Sensors
				p.Push(Sample{Sensor: int32(sensor), Value: sample(sensor, rngs[sensor]), Stamp: stamp})
			}
		}, swan.Push(s.In()))
		s.Launch(f)
		f.Spawn(func(c *swan.Frame) {
			p := s.Out().BindPop(c)
			for !p.Empty() {
				v := p.Pop()
				res.Count++
				res.EWMA = (1-ewmaAlpha)*res.EWMA + ewmaAlpha*v.Value
				if cfg.Complete != nil {
					cfg.Complete(v.Stamp)
				}
			}
		}, swan.Pop(s.Out()))
		f.Sync()
		p := stats.Value(f)
		res.Sensors = append([]Moments(nil), p.S[:cfg.Sensors]...)
	})
	return res
}

// RunShardedSerial is the sequential reference for RunSharded: the same
// round-robin interleaved stream folded in arrival order. (It differs
// from RunSerial only in the EWMA, which is order-dependent: Run's
// producers are sensor-sequential, the sharded ingress is interleaved.)
func RunShardedSerial(cfg ShardedConfig) Result {
	cfg.defaults()
	if cfg.Sensors < 1 || cfg.Sensors > MaxSensors {
		panic(fmt.Sprintf("streamstats: sensors must be 1..%d", MaxSensors))
	}
	var res Result
	var p Partials
	rngs := make([]*rng.RNG, cfg.Sensors)
	for i := range rngs {
		rngs[i] = rng.New(uint64(i) + 1)
	}
	total := (cfg.Samples / cfg.Sensors) * cfg.Sensors
	for i := 0; i < total; i++ {
		sensor := i % cfg.Sensors
		v := sample(sensor, rngs[sensor])
		p.S[sensor].Add(v)
		res.Count++
		res.EWMA = (1-ewmaAlpha)*res.EWMA + ewmaAlpha*v
	}
	res.Sensors = append([]Moments(nil), p.S[:cfg.Sensors]...)
	return res
}
