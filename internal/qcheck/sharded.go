package qcheck

import (
	"runtime"

	"repro/swan"
)

// ShardedProgram is a randomized check for the swan.Sharded fan-out:
// a pseudo-random value stream, a seed-derived content partition and a
// seed-derived transform, executed through the fan-out and compared
// element-for-element against the serial elision (the transform applied
// in arrival order). The geometry (shard count, queue bound, segment
// capacity) is drawn from the seed too, biased toward the deadlock-prone
// corners: tiny bounds, more shards than workers, single-element
// streams, streams a little longer than two of the fan-out's batches, and
// a transform that yields or blocks on a seed-chosen subset of the
// elements, so that stages meet each other's batches half-moved.
type ShardedProgram struct {
	Seed   uint64
	Values int
	Shards int
	Bound  int
	SegCap int

	vals []uint64
	mult uint64

	slowEvery uint64 // the transform stalls on about one element in slowEvery; 0 = on none
	slowKey   uint64
}

func shardedMix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// GenerateSharded derives a sharded program from seed.
func GenerateSharded(seed uint64) *ShardedProgram {
	r := seed
	next := func() uint64 { r = shardedMix(r); return r }
	p := &ShardedProgram{Seed: seed}
	switch next() % 4 {
	case 0:
		p.Values = int(next() % 4) // empty and near-empty streams
	case 1:
		p.Values = 1 + int(next()%64)
	default:
		p.Values = 256 + int(next()%4096)
	}
	p.Shards = 1 + int(next()%8)
	p.Bound = []int{1, 2, 7, 64, 1024}[next()%5]
	p.SegCap = []int{1, 8, 256}[next()%3]
	p.mult = next() | 1 // odd multiplier: a bijective transform
	p.vals = make([]uint64, p.Values)
	for i := range p.vals {
		p.vals[i] = next()
	}
	// Draws added later come last, so that a seed keeps the geometry and
	// the values it always had.
	p.slowEvery = []uint64{0, 0, 5, 61}[next()%4]
	p.slowKey = next()
	if batch := min(256, p.Bound); p.Values <= 2*batch && next()%2 == 0 {
		for n := 2*batch + 1 + int(next()%64); p.Values < n; p.Values++ {
			p.vals = append(p.vals, next())
		}
	}
	return p
}

func (p *ShardedProgram) transform(v uint64) uint64 { return shardedMix(v * p.mult) }

// work is one shard's transform: p.transform, stalling first on the slow
// elements — half of them yield the processor, half leave the worker slot
// through Frame.Block.
func (p *ShardedProgram) work(w *swan.Frame, shard int) func(uint64) uint64 {
	if p.slowEvery == 0 {
		return p.transform
	}
	return func(v uint64) uint64 {
		if h := shardedMix(v ^ p.slowKey); h%p.slowEvery == 0 {
			if h>>63 == 0 {
				runtime.Gosched()
			} else {
				w.Block(runtime.Gosched)
			}
		}
		return p.transform(v)
	}
}

// Check runs the program on a fresh runtime and reports whether the
// egress stream matches the serial elision.
func (p *ShardedProgram) Check(workers int) bool {
	var ok bool
	swan.New(workers).Run(func(f *swan.Frame) {
		ok, _ = p.RunOn(f)
	})
	return ok
}

// RunOn executes the program as a child of an existing frame (the soak
// harness runs many programs on one long-lived runtime) and reports
// whether the egress matched the serial elision, plus the number of
// segments the fan-out's queues still held at quiescence — the caller's
// pool-audit term for the abandoned queues.
func (p *ShardedProgram) RunOn(f *swan.Frame) (ok bool, chains uint64) {
	got := make([]uint64, 0, p.Values)
	var s *swan.Sharded[uint64, uint64]
	f.Call(func(c *swan.Frame) {
		s = swan.NewSharded(c,
			swan.ShardConfig{Shards: p.Shards, Bound: p.Bound, SegCap: p.SegCap},
			func(v uint64) uint64 { return v },
			p.work)
		c.Spawn(func(w *swan.Frame) {
			pu := s.In().BindPush(w)
			pu.PushSlice(p.vals)
		}, swan.Push(s.In()))
		s.Launch(c)
		c.Spawn(func(w *swan.Frame) {
			r := s.Out().BindPop(w)
			for !r.Empty() {
				got = append(got, r.Pop())
			}
		}, swan.Pop(s.Out()))
		c.Sync()
		chains = s.DebugChainSegments(c)
	})
	if len(got) != len(p.vals) {
		return false, chains
	}
	for i, v := range p.vals {
		if got[i] != p.transform(v) {
			return false, chains
		}
	}
	return true, chains
}
