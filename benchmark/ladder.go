package main

import (
	"runtime"
	"time"

	"repro/internal/deque"
	"repro/internal/workloads/dedup"
	"repro/internal/workloads/streamstats"
	"repro/swan"
)

// The ladder times each layer's public functions in isolation: one
// element as it climbs from a raw deque slot to a full Sharded hop, one
// task from a deque push to a scoped spawn with a dependence. Every
// probe runs ladderBatches timed batches after one warm-up batch and
// reports the median cost per operation, so that a change to one layer
// can be read off the rung it touches.
const ladderBatches = 5

// nsPerOp times batch, which performs ops operations and returns how
// long they took, and returns the median nanoseconds per operation.
func nsPerOp(ops int, batch func(ops int) time.Duration) float64 {
	batch(ops)
	per := make([]float64, ladderBatches)
	for i := range per {
		per[i] = float64(batch(ops)) / float64(ops)
	}
	return median(per)
}

// ladder runs every probe on a fresh runtime and stores the results
// into m. scale divides the operation counts (the tests use a large
// scale to keep the smoke run short); the counts are sized so that a
// batch takes 10-40 ms on the box the baseline was taken on.
func ladder(m metricSet, workers, scale int) {
	rt := swan.New(workers)
	scaled := func(ops int) int { return max(ops/scale, 64) }
	probe := func(name string, ops int, batch func(ops int) time.Duration) {
		m.set(name, "ns", nsPerOp(scaled(ops), batch))
	}
	// inRun wraps a batch that needs a root frame.
	inRun := func(body func(f *swan.Frame, ops int) time.Duration) func(int) time.Duration {
		return func(ops int) (d time.Duration) {
			rt.Run(func(f *swan.Frame) { d = body(f, ops) })
			return d
		}
	}

	// deque
	probe("deque.push_pop_ns", 500_000, func(ops int) time.Duration {
		d := deque.New[int](1024)
		t0 := time.Now()
		for i := 0; i < ops; i++ {
			d.Push(i)
			d.Pop()
		}
		return time.Since(t0)
	})
	probe("deque.steal_ns", 512_000, func(ops int) time.Duration {
		d := deque.New[int](1024)
		var stolen time.Duration
		for done := 0; done < ops; done += 512 {
			for i := 0; i < 512; i++ {
				d.Push(i)
			}
			t0 := time.Now()
			for i := 0; i < 512; i++ {
				d.Steal()
			}
			stolen += time.Since(t0)
		}
		return stolen
	})

	// sched
	empty := func(*swan.Frame) {}
	spawnSync := inRun(func(f *swan.Frame, ops int) time.Duration {
		return spawnLoop(f, ops, func() { f.Spawn(empty) })
	})
	probe("sched.spawn_sync_ns", 50_000, spawnSync)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	spawnSync(scaled(50_000))
	runtime.ReadMemStats(&ms1)
	m.set("sched.spawn_allocs", "count", float64(ms1.Mallocs-ms0.Mallocs)/float64(scaled(50_000)))
	probe("sched.spawn_dep_ns", 25_000, inRun(func(f *swan.Frame, ops int) time.Duration {
		q := swan.NewQueue[int](f)
		return spawnLoop(f, ops, func() { f.Spawn(empty, swan.Push(q)) })
	}))
	probe("sched.spawn_batch_ns", 50_000, inRun(func(f *swan.Frame, ops int) time.Duration {
		t0 := time.Now()
		for i := 0; i < ops; i += 16 {
			f.SpawnN(16, func(*swan.Frame, int) {})
			f.Sync()
		}
		return time.Since(t0)
	}))
	probe("sched.scope_spawn_ns", 50_000, inRun(func(f *swan.Frame, ops int) (d time.Duration) {
		_ = f.ScopedCall(func(c *swan.Frame) { // no task cancels or panics: the error is always nil
			d = spawnLoop(c, ops, func() { c.Spawn(empty) })
		})
		return d
	}))
	probe("sched.block_ns", 200_000, inRun(func(f *swan.Frame, ops int) (d time.Duration) {
		// Block gives up a worker's run token, so it needs a task that
		// holds one: the root frame does not.
		f.Spawn(func(c *swan.Frame) {
			t0 := time.Now()
			for i := 0; i < ops; i++ {
				c.Block(func() {})
			}
			d = time.Since(t0)
		})
		f.Sync()
		return d
	}))

	// core queue/handle and flow: one producer task, one consumer task,
	// one queue of ints with 256-slot segments.
	type side = func(c *swan.Frame, q *swan.Queue[int], n int)
	hop := func(prod, cons side, opts ...swan.QueueOption) func(int) time.Duration {
		return inRun(func(f *swan.Frame, ops int) time.Duration {
			q := swan.NewQueueWithCapacity[int](f, elemSegCap, opts...)
			t0 := time.Now()
			f.Spawn(func(c *swan.Frame) { prod(c, q, ops) }, swan.Push(q))
			f.Spawn(func(c *swan.Frame) { cons(c, q, ops) }, swan.Pop(q))
			f.Sync()
			return time.Since(t0)
		})
	}
	boundPush := func(c *swan.Frame, q *swan.Queue[int], n int) {
		pw := q.BindPush(c)
		for i := 0; i < n; i++ {
			pw.Push(i)
		}
	}
	boundPop := func(c *swan.Frame, q *swan.Queue[int], n int) {
		pp := q.BindPop(c)
		for i := 0; i < n; i++ {
			pp.Pop()
		}
	}
	const hops = 250_000
	probe("queue.serial_hop_ns", hops, inRun(func(f *swan.Frame, ops int) time.Duration {
		q := swan.NewQueueWithCapacity[int](f, elemSegCap)
		t0 := time.Now()
		for i := 0; i < ops; i += 64 {
			for j := 0; j < 64; j++ {
				q.Push(f, j)
			}
			for j := 0; j < 64; j++ {
				q.Pop(f)
			}
		}
		return time.Since(t0)
	}))
	probe("queue.bound_hop_ns", hops, hop(boundPush, boundPop))
	probe("queue.unbound_hop_ns", hops, hop(
		func(c *swan.Frame, q *swan.Queue[int], n int) {
			for i := 0; i < n; i++ {
				q.Push(c, i)
			}
		},
		func(c *swan.Frame, q *swan.Queue[int], n int) {
			for i := 0; i < n; i++ {
				q.Pop(c)
			}
		}))
	probe("queue.bulk_hop_ns", 4_000_000, hop(
		func(c *swan.Frame, q *swan.Queue[int], n int) {
			pw := q.BindPush(c)
			buf := make([]int, 64)
			for i := 0; i < n; i += len(buf) {
				pw.PushSlice(buf[:min(len(buf), n-i)])
			}
		},
		func(c *swan.Frame, q *swan.Queue[int], n int) {
			pp := q.BindPop(c)
			buf := make([]int, 64)
			for got := 0; got < n; {
				k := pp.PopInto(buf)
				if k == 0 && pp.Empty() {
					return
				}
				got += k
			}
		}))
	probe("queue.named_hop_ns", hops, hop(boundPush, boundPop, swan.Named("ladder.named")))
	probe("queue.fanin_leaf_ns", 10_000, hop(
		func(c *swan.Frame, q *swan.Queue[int], n int) {
			for i := 0; i < n; i++ {
				c.Spawn(func(g *swan.Frame) { q.Push(g, i) }, swan.Push(q))
			}
		},
		func(c *swan.Frame, q *swan.Queue[int], n int) {
			pp := q.BindPop(c)
			for !pp.Empty() {
				pp.Pop()
			}
		}))
	// Queue lifecycle, as dedup's per-chunk pipelines pay it: create (or
	// recycle), push three segments' worth, drain.
	churn := func(recycle bool) func(int) time.Duration {
		return inRun(func(f *swan.Frame, ops int) time.Duration {
			cycle := func(q *swan.Queue[int]) {
				for i := 0; i < 3*faninSegCap; i++ {
					q.Push(f, i)
				}
				for !q.Empty(f) {
					q.Pop(f)
				}
			}
			q := swan.NewQueueWithCapacity[int](f, faninSegCap)
			cycle(q)
			t0 := time.Now()
			for i := 0; i < ops; i++ {
				if recycle {
					q.Recycle(f)
				} else {
					q = swan.NewQueueWithCapacity[int](f, faninSegCap)
				}
				cycle(q)
			}
			return time.Since(t0)
		})
	}
	probe("queue.churn_fresh_ns", 1_000, churn(false))
	probe("queue.churn_recycle_ns", 1_000, churn(true))

	probe("flow.bounded_hop_ns", hops, hop(boundPush, boundPop, swan.Bounded(1024)))
	probe("flow.tight_hop_ns", hops, hop(boundPush, boundPop, swan.Bounded(16)))
	probe("flow.trypush_ns", hops, hop(
		func(c *swan.Frame, q *swan.Queue[int], n int) {
			pw := q.BindPush(c)
			for i := 0; i < n; i++ {
				for !pw.TryPush(i) {
					runtime.Gosched()
				}
			}
		}, boundPop, swan.Bounded(1024)))

	// core/hyper
	probe("hyper.reducer_update_ns", 2_000_000, inRun(func(f *swan.Frame, ops int) (d time.Duration) {
		r := swan.NewReducer(f, swan.Monoid[int]{
			Identity: func() int { return 0 },
			Combine:  func(into *int, from int) { *into += from },
		})
		f.Spawn(func(c *swan.Frame) {
			h := r.BindReduce(c)
			add := func(p *int) { *p++ }
			t0 := time.Now()
			for i := 0; i < ops; i++ {
				h.Update(add)
			}
			d = time.Since(t0)
		}, swan.Reduce(r))
		f.Sync()
		return d
	}))
	probe("hyper.hypermap_put_ns", 500_000, inRun(func(f *swan.Frame, ops int) (d time.Duration) {
		hm := swan.NewHypermap[int, int](f)
		f.Spawn(func(c *swan.Frame) {
			h := hm.BindMap(c)
			t0 := time.Now()
			for i := 0; i < ops; i++ {
				h.Put(i&0x3fff, i)
			}
			d = time.Since(t0)
		}, swan.MapWrite(hm))
		f.Sync()
		return d
	}))

	// core shard: one element through router, route log, shard queue and
	// merger, with an identity transform; then the streamstats pipeline
	// at two shard counts.
	for _, s := range []struct {
		shards int
		name   string
	}{{1, "shard.hop_ns.s1"}, {2, "shard.hop_ns.s2"}, {4, "shard.hop_ns.s4"}} {
		probe(s.name, 100_000, inRun(func(f *swan.Frame, ops int) time.Duration {
			sh := swan.NewSharded(f, swan.ShardConfig{Shards: s.shards, Bound: 1024},
				func(v uint64) uint64 { return v },
				func(*swan.Frame, int) func(uint64) uint64 { return func(v uint64) uint64 { return v } })
			t0 := time.Now()
			f.Spawn(func(c *swan.Frame) {
				p := sh.In().BindPush(c)
				for i := 0; i < ops; i++ {
					p.Push(uint64(i))
				}
			}, swan.Push(sh.In()))
			sh.Launch(f)
			f.Spawn(func(c *swan.Frame) {
				p := sh.Out().BindPop(c)
				for !p.Empty() {
					p.Pop()
				}
			}, swan.Pop(sh.Out()))
			f.Sync()
			return time.Since(t0)
		}))
	}
	for _, s := range []struct {
		shards int
		name   string
	}{{1, "shard.items_per_s.s1"}, {4, "shard.items_per_s.s4"}} {
		cfg := shardConfig(scaled(400_000) / shardSensors * shardSensors)
		cfg.Shards = s.shards
		rates := make([]float64, 3)
		for i := range rates {
			t0 := time.Now()
			streamstats.RunSharded(rt, cfg)
			rates[i] = float64(cfg.Samples) / time.Since(t0).Seconds()
		}
		m.set(s.name, "items/s", median(rates))
	}

	// dataflow
	probe("dataflow.inout_chain_ns", 2_000, inRun(func(f *swan.Frame, ops int) time.Duration {
		v := swan.NewVersioned(0)
		return spawnLoop(f, ops, func() {
			f.Spawn(func(c *swan.Frame) { v.Set(c, v.Get(c)+1) }, swan.InOut(v))
		})
	}))

	// workloads: the serial floor under shard_stream.
	probe("streamstats.serial_ns_per_item", 1_000_000, func(ops int) time.Duration {
		cfg := shardConfig(ops / shardSensors * shardSensors)
		t0 := time.Now()
		streamstats.RunShardedSerial(cfg)
		return time.Since(t0)
	})
}

// spawnLoop times ops calls of spawn on f with a Sync every 256.
func spawnLoop(f *swan.Frame, ops int, spawn func()) time.Duration {
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		spawn()
		if i%256 == 255 {
			f.Sync()
		}
	}
	f.Sync()
	return time.Since(t0)
}

// dedupLadder measures the dedup application's own breakdown on app's
// input: the serial stage times of Table 2, and serial, parallel and
// one-worker runs of the whole pipeline, reps of each, interleaved so
// that drift hits all three alike. Every output is checked against the
// serial reference.
func dedupLadder(m metricSet, tr *tracer, app *dedupApp, reps int) repResult {
	one := swan.New(1)
	dedup.RunHyperqueue(one, app.data, app.opts, dedupSegCap) // warm the one-worker runtime
	var total repResult
	timed := func(name string, run func() dedup.Result) float64 {
		id := tr.begin(name, -1)
		t0 := time.Now()
		res := run()
		d := time.Since(t0).Seconds()
		tr.end(id)
		r := app.check(res)
		total.items += r.items
		total.failed += r.failed
		return d
	}
	serial, par, single := make([]float64, reps), make([]float64, reps), make([]float64, reps)
	for i := 0; i < reps; i++ {
		serial[i] = timed("dedup.RunSerial", func() dedup.Result { return dedup.RunSerial(app.data, app.opts) })
		par[i] = timed("dedup.RunHyperqueue", func() dedup.Result { return dedup.RunHyperqueue(app.rt, app.data, app.opts, dedupSegCap) })
		single[i] = timed("dedup.RunHyperqueue.1worker", func() dedup.Result { return dedup.RunHyperqueue(one, app.data, app.opts, dedupSegCap) })
	}
	id := tr.begin("dedup.CharacterizeStages", -1)
	stages := dedup.CharacterizeStages(app.data, app.opts)
	tr.end(id)
	for i, name := range []string{"fragment", "refine", "dedup", "compress", "output"} {
		m.set("dedup.stage_s."+name, "s", stages[i].Seconds)
	}
	m.set("dedup.serial_s", "s", median(serial))
	m.set("dedup.par_s", "s", median(par))
	m.set("dedup.one_worker_s", "s", median(single))
	m.set("speedup_vs_serial", "ratio", median(serial)/median(par))
	m.set("one_worker_vs_serial", "ratio", median(serial)/median(single))
	return total
}

// pacedLadder stores what the open-loop phases measured: the main phase
// under the metric names themselves, the low- and high-rate phases under
// a .lo and .hi suffix.
func pacedLadder(m metricSet, mainP, lo, hi *pacedResult) {
	m.set("lat_p50_us", "us", mainP.lat.percentileUs(50))
	m.set("lat_p99_us", "us", mainP.lat.percentileUs(99))
	m.set("gen_late_p50_us", "us", mainP.late.percentileUs(50))
	m.set("gen_late_p99_us", "us", mainP.late.percentileUs(99))
	m.set("burst_first_p50_us", "us", mainP.first.percentileUs(50))
	m.set("burst_first_p99_us", "us", mainP.first.percentileUs(99))
	m.set("late_frac", "ratio", mainP.lat.lateFrac())
	m.set("drain_ms", "ms", float64(mainP.drain)/1e6)
	m.set("lat_p50_us.lo", "us", lo.lat.percentileUs(50))
	m.set("lat_p99_us.lo", "us", lo.lat.percentileUs(99))
	m.set("lat_p50_us.hi", "us", hi.lat.percentileUs(50))
	m.set("lat_p99_us.hi", "us", hi.lat.percentileUs(99))
}
