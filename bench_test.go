// Root benchmark suite: one benchmark per paper table/figure plus the
// ablations called out in DESIGN.md. These run each configuration as a
// testing.B benchmark for statistical use; cmd/paperbench runs the full
// sweeps and prints the paper-shaped tables.
package repro_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/deque"
	"repro/internal/sched"
	"repro/internal/workloads/bzip2"
	"repro/internal/workloads/dedup"
	"repro/internal/workloads/ferret"
	"repro/swan"
)

// benchCores is the reduced core set used by benchmarks (the full sweep
// lives in cmd/paperbench).
func benchCores() []int {
	n := runtime.NumCPU()
	set := []int{1}
	if n >= 8 {
		set = append(set, 8)
	}
	if n > 1 {
		set = append(set, n)
	}
	return set
}

// --- Table 1 ------------------------------------------------------------

func BenchmarkTable1FerretStages(b *testing.B) {
	p := ferret.DefaultParams()
	p.NumImages = 64
	corpus := ferret.NewCorpus(p)
	b.ResetTimer()
	var rows []ferret.StageTime
	for i := 0; i < b.N; i++ {
		rows = ferret.CharacterizeStages(corpus, p)
	}
	b.StopTimer()
	for _, r := range rows {
		b.ReportMetric(r.Percent, r.Name+"_%")
	}
}

// --- Table 2 ------------------------------------------------------------

func BenchmarkTable2DedupStages(b *testing.B) {
	data := dedup.GenerateInput(42, 4*1024*1024, 0.5)
	o := dedup.DefaultOptions()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	var rows []dedup.StageTime
	for i := 0; i < b.N; i++ {
		rows = dedup.CharacterizeStages(data, o)
	}
	b.StopTimer()
	for _, r := range rows {
		b.ReportMetric(r.Percent, r.Name+"_%")
	}
}

// --- Figure 8 -----------------------------------------------------------

func BenchmarkFig8Ferret(b *testing.B) {
	p := ferret.DefaultParams()
	corpus := ferret.NewCorpus(p)
	models := map[string]func(cores int){
		"Pthreads":   func(c int) { ferret.RunPthreads(corpus, p, c+4, 4*c) },
		"TBB":        func(c int) { ferret.RunTBB(corpus, p, c, 4*c) },
		"Objects":    func(c int) { ferret.RunObjects(swan.New(c), corpus, p) },
		"Hyperqueue": func(c int) { ferret.RunHyperqueue(swan.New(c), corpus, p, 16) },
	}
	for _, name := range []string{"Pthreads", "TBB", "Objects", "Hyperqueue"} {
		for _, cores := range benchCores() {
			b.Run(fmt.Sprintf("model=%s/cores=%d", name, cores), func(b *testing.B) {
				prev := runtime.GOMAXPROCS(cores)
				defer runtime.GOMAXPROCS(prev)
				for i := 0; i < b.N; i++ {
					models[name](cores)
				}
			})
		}
	}
}

// --- Figure 11 ----------------------------------------------------------

func BenchmarkFig11Dedup(b *testing.B) {
	data := dedup.GenerateInput(42, 4*1024*1024, 0.5)
	o := dedup.DefaultOptions()
	models := map[string]func(cores int){
		"Pthreads":   func(c int) { dedup.RunPthreads(data, o, c+4, 4*c) },
		"TBB":        func(c int) { dedup.RunTBB(data, o, c, 4*c) },
		"Objects":    func(c int) { dedup.RunObjects(swan.New(c), data, o) },
		"Hyperqueue": func(c int) { dedup.RunHyperqueue(swan.New(c), data, o, 64) },
	}
	for _, name := range []string{"Pthreads", "TBB", "Objects", "Hyperqueue"} {
		for _, cores := range benchCores() {
			b.Run(fmt.Sprintf("model=%s/cores=%d", name, cores), func(b *testing.B) {
				prev := runtime.GOMAXPROCS(cores)
				defer runtime.GOMAXPROCS(prev)
				b.SetBytes(int64(len(data)))
				for i := 0; i < b.N; i++ {
					models[name](cores)
				}
			})
		}
	}
}

// --- §6.3 bzip2 ---------------------------------------------------------

func BenchmarkBzip2(b *testing.B) {
	data := bzip2.GenerateInput(7, 1024*1024)
	const blockSize = 64 * 1024
	models := map[string]func(cores int){
		"Objects":    func(c int) { bzip2.RunObjects(swan.New(c), data, blockSize) },
		"Hyperqueue": func(c int) { bzip2.RunHyperqueue(swan.New(c), data, blockSize, 8) },
		"LoopSplit":  func(c int) { bzip2.RunHyperqueueLoopSplit(swan.New(c), data, blockSize, 8, 8) },
	}
	for _, name := range []string{"Objects", "Hyperqueue", "LoopSplit"} {
		for _, cores := range benchCores() {
			b.Run(fmt.Sprintf("model=%s/cores=%d", name, cores), func(b *testing.B) {
				prev := runtime.GOMAXPROCS(cores)
				defer runtime.GOMAXPROCS(prev)
				b.SetBytes(int64(len(data)))
				for i := 0; i < b.N; i++ {
					models[name](cores)
				}
			})
		}
	}
}

// --- Ablation: queue segment length (§5.1) -------------------------------

func BenchmarkAblationSegmentSize(b *testing.B) {
	for _, segCap := range []int{1, 16, 256, 4096} {
		b.Run(fmt.Sprintf("segcap=%d", segCap), func(b *testing.B) {
			rt := sched.New(2)
			rt.Run(func(f *sched.Frame) {
				q := core.NewWithCapacity[int](f, segCap)
				b.ResetTimer()
				f.Spawn(func(c *sched.Frame) {
					for i := 0; i < b.N; i++ {
						q.Push(c, i)
					}
				}, core.Push(q))
				f.Spawn(func(c *sched.Frame) {
					for i := 0; i < b.N; i++ {
						q.Pop(c)
					}
				}, core.Pop(q))
				f.Sync()
			})
		})
	}
}

// --- Ablation: hyperqueue vs Go channel as SPSC transport ----------------

// The hyperqueue side runs on bound handles (BindPush/BindPop): the
// privilege resolution is paid once per task body, the way a channel is
// "bound" by closure capture, and each element is one Push/Pop — the
// per-element regime the channel side measures.
func BenchmarkAblationQueueVsChannel(b *testing.B) {
	b.Run("hyperqueue", func(b *testing.B) {
		rt := sched.New(2)
		rt.Run(func(f *sched.Frame) {
			q := core.NewWithCapacity[int](f, 256)
			b.ResetTimer()
			f.Spawn(func(c *sched.Frame) {
				pw := q.BindPush(c)
				for i := 0; i < b.N; i++ {
					pw.Push(i)
				}
			}, core.Push(q))
			f.Spawn(func(c *sched.Frame) {
				pp := q.BindPop(c)
				for i := 0; i < b.N; i++ {
					pp.Pop()
				}
			}, core.Pop(q))
			f.Sync()
		})
	})
	b.Run("channel", func(b *testing.B) {
		ch := make(chan int, 256)
		done := make(chan struct{})
		b.ResetTimer()
		go func() {
			for i := 0; i < b.N; i++ {
				ch <- i
			}
			close(ch)
		}()
		go func() {
			for range ch {
			}
			close(done)
		}()
		<-done
	})
}

// --- Ablation: bound handles vs unbound per-element access ---------------

// BenchmarkBoundVsUnbound isolates what PR 5's binding buys on the same
// 1P/1C ring: mode=unbound re-resolves privileges per element
// (Queue.Push/Queue.Pop), mode=bound resolves them once per task body
// (BindPush/BindPop), and mode=bulk moves batch-sized slices per call
// (PushSlice/PopInto — one wake-up probe and one reachability probe per
// call instead of per element). ns/op is per element in all three
// modes; CI gates allocs/op == 0 on the bound path.
func BenchmarkBoundVsUnbound(b *testing.B) {
	const bulk = 64
	run := func(b *testing.B, producer, consumer func(c *sched.Frame, q *core.Queue[int], n int)) {
		b.ReportAllocs()
		rt := sched.New(2)
		rt.Run(func(f *sched.Frame) {
			q := core.NewWithCapacity[int](f, 256)
			b.ResetTimer()
			f.Spawn(func(c *sched.Frame) { producer(c, q, b.N) }, core.Push(q))
			f.Spawn(func(c *sched.Frame) { consumer(c, q, b.N) }, core.Pop(q))
			f.Sync()
		})
	}
	b.Run("mode=unbound", func(b *testing.B) {
		run(b,
			func(c *sched.Frame, q *core.Queue[int], n int) {
				for i := 0; i < n; i++ {
					q.Push(c, i)
				}
			},
			func(c *sched.Frame, q *core.Queue[int], n int) {
				for i := 0; i < n; i++ {
					q.Pop(c)
				}
			})
	})
	b.Run("mode=bound", func(b *testing.B) {
		run(b,
			func(c *sched.Frame, q *core.Queue[int], n int) {
				pw := q.BindPush(c)
				for i := 0; i < n; i++ {
					pw.Push(i)
				}
			},
			func(c *sched.Frame, q *core.Queue[int], n int) {
				pp := q.BindPop(c)
				for i := 0; i < n; i++ {
					pp.Pop()
				}
			})
	})
	b.Run("mode=bulk", func(b *testing.B) {
		run(b,
			func(c *sched.Frame, q *core.Queue[int], n int) {
				pw := q.BindPush(c)
				buf := make([]int, bulk)
				for i := 0; i < n; i += len(buf) {
					k := len(buf)
					if n-i < k {
						k = n - i
					}
					pw.PushSlice(buf[:k])
				}
			},
			func(c *sched.Frame, q *core.Queue[int], n int) {
				pp := q.BindPop(c)
				buf := make([]int, bulk)
				for got := 0; got < n; {
					k := pp.PopInto(buf)
					if k == 0 {
						if pp.Empty() {
							break
						}
						continue
					}
					got += k
				}
			})
	})
}

// --- Ablation: Chase–Lev deque vs channel as dispatch substrate ----------

func BenchmarkAblationDequeOwner(b *testing.B) {
	d := deque.New[int](1024)
	for i := 0; i < b.N; i++ {
		d.Push(i)
		d.Pop()
	}
}

func BenchmarkAblationDequeVsChannelDispatch(b *testing.B) {
	b.Run("deque-steal", func(b *testing.B) {
		d := deque.New[int](1024)
		for i := 0; i < 512; i++ {
			d.Push(i)
		}
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, ok := d.Steal(); !ok {
					d.Push(1) // keep the deque warm
				}
			}
		})
	})
	b.Run("channel", func(b *testing.B) {
		ch := make(chan int, 1024)
		for i := 0; i < 512; i++ {
			ch <- i
		}
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				select {
				case <-ch:
				default:
					ch <- 1
				}
			}
		})
	})
}

// --- Ablation: work-stealing scheduler vs goroutine-per-task baseline ----

// runPipelineSpawnTree is the Figure 2 shape: a recursively parallel
// producer tree feeding one consumer through a hyperqueue. It exercises
// both dispatch (deque pushes, steals) and the blocking protocol (Sync,
// pop waits).
func runPipelineSpawnTree(rt *sched.Runtime, items int) {
	rt.Run(func(f *sched.Frame) {
		q := core.NewWithCapacity[int](f, 256)
		f.Spawn(func(c *sched.Frame) {
			var produce func(c *sched.Frame, lo, hi int)
			produce = func(c *sched.Frame, lo, hi int) {
				if hi-lo <= 64 {
					for n := lo; n < hi; n++ {
						q.Push(c, n)
					}
					return
				}
				mid := (lo + hi) / 2
				c.Spawn(func(g *sched.Frame) { produce(g, lo, mid) }, core.Push(q))
				c.Spawn(func(g *sched.Frame) { produce(g, mid, hi) }, core.Push(q))
			}
			produce(c, 0, items)
		}, core.Push(q))
		f.Spawn(func(c *sched.Frame) {
			sum := 0
			for !q.Empty(c) {
				sum += q.Pop(c)
			}
			_ = sum
		}, core.Pop(q))
		f.Sync()
	})
}

// runSpawnTree is a pure dep-free spawn tree: the maximal-stealing shape.
func runSpawnTree(rt *sched.Runtime, depth int) {
	var rec func(f *sched.Frame, d int)
	rec = func(f *sched.Frame, d int) {
		if d == 0 {
			return
		}
		f.Spawn(func(c *sched.Frame) { rec(c, d-1) })
		f.Spawn(func(c *sched.Frame) { rec(c, d-1) })
		f.Sync()
	}
	rt.Run(func(f *sched.Frame) { rec(f, depth) })
}

// BenchmarkAblationSchedulerSubstrate is the ablation promised by
// internal/deque: the Chase–Lev work-stealing runtime (PolicySteal)
// against the seed's goroutine-per-task slot-semaphore baseline
// (PolicyGoroutine), on a hyperqueue pipeline and on a pure spawn tree.
// For the stealing runtime it also reports observed steals per op.
func BenchmarkAblationSchedulerSubstrate(b *testing.B) {
	shapes := []struct {
		name string
		run  func(rt *sched.Runtime)
	}{
		{"pipeline", func(rt *sched.Runtime) { runPipelineSpawnTree(rt, 1<<13) }},
		{"spawntree", func(rt *sched.Runtime) { runSpawnTree(rt, 9) }},
	}
	workers := runtime.NumCPU()
	if workers < 2 {
		workers = 2 // keep thieves in play even on one-core machines
	}
	for _, policy := range []sched.SpawnPolicy{sched.PolicySteal, sched.PolicyGoroutine} {
		for _, shape := range shapes {
			b.Run(fmt.Sprintf("sched=%s/shape=%s", policy, shape.name), func(b *testing.B) {
				rt := sched.NewWithPolicy(workers, policy)
				before := rt.Stats()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					shape.run(rt)
				}
				b.StopTimer()
				if policy == sched.PolicySteal {
					after := rt.Stats()
					b.ReportMetric(float64(after.Steals-before.Steals)/float64(b.N), "steals/op")
					b.ReportMetric(float64(after.Spawns-before.Spawns)/float64(b.N), "spawns/op")
				}
			})
		}
	}
}

// --- Ablation: §5.4 loop split bounds serial memory ----------------------

func BenchmarkAblationLoopSplit(b *testing.B) {
	data := bzip2.GenerateInput(7, 512*1024)
	const blockSize = 16 * 1024
	b.Run("monolithic-serial", func(b *testing.B) {
		b.ReportAllocs()
		rt := swan.New(1)
		for i := 0; i < b.N; i++ {
			bzip2.RunHyperqueue(rt, data, blockSize, 8)
		}
	})
	b.Run("loopsplit-serial", func(b *testing.B) {
		b.ReportAllocs()
		rt := swan.New(1)
		for i := 0; i < b.N; i++ {
			bzip2.RunHyperqueueLoopSplit(rt, data, blockSize, 8, 4)
		}
	})
}

// --- Zero-allocation steady state (§3.2) ---------------------------------

// BenchmarkSteadyStateAllocs measures the long-running one-producer /
// one-consumer ring: with pooled segments every push, pop, overflow link
// and drain-past recycle must run allocation-free, so allocs/op converges
// to 0 (the constant setup — runtime, queue, two task frames — amortizes
// over b.N values).
func BenchmarkSteadyStateAllocs(b *testing.B) {
	b.ReportAllocs()
	rt := sched.New(2)
	rt.Run(func(f *sched.Frame) {
		q := core.NewWithCapacity[int](f, 256)
		b.ResetTimer()
		f.Spawn(func(c *sched.Frame) {
			for i := 0; i < b.N; i++ {
				q.Push(c, i)
			}
		}, core.Push(q))
		f.Spawn(func(c *sched.Frame) {
			for i := 0; i < b.N; i++ {
				q.Pop(c)
			}
		}, core.Pop(q))
		f.Sync()
		b.StopTimer()
	})
}

// --- Queue churn: runtime-wide pool + queue recycling --------------------

// BenchmarkQueueChurn measures the queue *lifecycle* cost dedup's
// per-coarse-chunk pipelines pay: each op runs one
// create→use→drain→recycle cycle (three segments' worth of values, so
// every cycle exercises overflow links and drain-past recycling).
// mode=fresh is the pre-recycling dedup shape: a long-lived owner frame
// constructs a new queue per cycle and abandons it — which does not make
// it garbage, because the owner retains the frame attachment and sync
// hook of every queue it ever created, and each abandoned queue strands
// its final open-tail segment (so the shared pool drains by one segment
// per cycle and steady state re-pays one segment allocation per op on
// top of the queue structure). mode=recycle reuses one queue via
// Queue.Recycle and must converge to 0 allocs/op; CI gates on both
// (recycle at zero, fresh against the committed BENCH_pr4.json
// baseline).
func BenchmarkQueueChurn(b *testing.B) {
	const segCap, values = 64, 3 * 64
	cycle := func(f *sched.Frame, q *core.Queue[int]) {
		for i := 0; i < values; i++ {
			q.Push(f, i)
		}
		for !q.Empty(f) {
			q.Pop(f)
		}
	}
	b.Run("mode=fresh", func(b *testing.B) {
		b.ReportAllocs()
		rt := sched.New(2)
		rt.Run(func(f *sched.Frame) {
			cycle(f, core.NewWithCapacity[int](f, segCap)) // warm the pool
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycle(f, core.NewWithCapacity[int](f, segCap))
			}
			b.StopTimer()
		})
	})
	b.Run("mode=recycle", func(b *testing.B) {
		b.ReportAllocs()
		rt := sched.New(2)
		rt.Run(func(f *sched.Frame) {
			q := core.NewWithCapacity[int](f, segCap)
			cycle(f, q) // warm the pool
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.Recycle(f)
				cycle(f, q)
			}
			b.StopTimer()
		})
	})
}

// --- Prepare/Complete churn under a popping consumer ----------------------

// BenchmarkPrepareCompleteContention measures the structural hot path the
// consMu/regMu lock split serves: a stream of short-lived sibling
// producer tasks (Prepare/Complete churn on the registry lock) feeding a
// concurrently popping consumer. Push wake-ups are an atomic load and
// Prepare/Complete take only the registry lock. The sub-benchmark keeps
// its ledger name; the single-mutex side of the old ablation is gone (it
// never won: 323 vs 249 ns at PR 3).
func BenchmarkPrepareCompleteContention(b *testing.B) {
	workers := runtime.NumCPU()
	if workers < 4 {
		workers = 4
	}
	const perTask = 16
	b.Run("lock=sharded", func(b *testing.B) {
		rt := sched.New(workers)
		rt.Run(func(f *sched.Frame) {
			q := core.NewWithCapacity[int](f, 64)
			b.ResetTimer()
			// The producer side is spawned before the consumer so the
			// consumer observes it in the serial elision: Empty blocks
			// (and the push wake-up path fires) until every producer
			// task ordered before it has retired.
			f.Spawn(func(spawner *sched.Frame) {
				tasks := b.N/perTask + 1
				for i := 0; i < tasks; i++ {
					spawner.Spawn(func(c *sched.Frame) {
						for j := 0; j < perTask; j++ {
							q.Push(c, j)
						}
					}, core.Push(q))
				}
			}, core.Push(q))
			f.Spawn(func(c *sched.Frame) {
				for !q.Empty(c) {
					q.Pop(c)
				}
			}, core.Pop(q))
			f.Sync()
			b.StopTimer()
		})
	})
}

// --- Ablation: batched vs one-at-a-time loop-split spawn -----------------

// BenchmarkBatchedSpawn compares publishing a wave of k tasks with
// SpawnN (one deque tail store, one wake sweep) against k consecutive
// Spawn calls, on the dep-free fan-out shape. Op = one spawned task.
func BenchmarkBatchedSpawn(b *testing.B) {
	const wave = 16
	for _, mode := range []string{"spawn-loop", "spawn-n"} {
		b.Run("mode="+mode, func(b *testing.B) {
			rt := sched.New(runtime.NumCPU())
			rt.Run(func(f *sched.Frame) {
				b.ResetTimer()
				waves := b.N/wave + 1
				for w := 0; w < waves; w++ {
					if mode == "spawn-n" {
						f.SpawnN(wave, func(*sched.Frame, int) {})
					} else {
						for i := 0; i < wave; i++ {
							f.Spawn(func(*sched.Frame) {})
						}
					}
					f.Sync()
				}
				b.StopTimer()
			})
		})
	}
}

// --- Runtime microbenchmarks ---------------------------------------------

func BenchmarkSpawnSyncOverhead(b *testing.B) {
	rt := sched.New(runtime.NumCPU())
	rt.Run(func(f *sched.Frame) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.Spawn(func(*sched.Frame) {})
			if i%256 == 255 {
				f.Sync()
			}
		}
		f.Sync()
	})
}

func BenchmarkVersionedInOutChain(b *testing.B) {
	rt := sched.New(runtime.NumCPU())
	rt.Run(func(f *sched.Frame) {
		v := swan.NewVersioned(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.Spawn(func(c *sched.Frame) { v.Set(c, v.Get(c)+1) }, swan.InOut(v))
			if i%256 == 255 {
				f.Sync()
			}
		}
		f.Sync()
	})
}

// --- Sanity: harness self-check ------------------------------------------

func BenchmarkHarnessMeasure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Measure(1, 1, func() {})
	}
}

// BenchmarkBoundedVsUnbounded prices PR 6's flow control on the same
// 1P/1C bound-handle ring as BenchmarkBoundVsUnbound: mode=unbounded is
// the plain queue (the nil flow-state check is the only addition to the
// PR 5 hot path), mode=bounded runs under an ample budget (credits
// always remain — the credit accounting is two atomics per element and
// the path must stay allocation-free, which CI gates), and mode=tight
// runs under real backpressure (bound 64, producers park and wake).
// ns/op is per element in all three modes.
func BenchmarkBoundedVsUnbounded(b *testing.B) {
	run := func(b *testing.B, opts ...core.QueueOption) {
		b.ReportAllocs()
		rt := sched.New(2)
		rt.Run(func(f *sched.Frame) {
			q := core.NewWithCapacity[int](f, 256, opts...)
			b.ResetTimer()
			f.Spawn(func(c *sched.Frame) {
				pw := q.BindPush(c)
				for i := 0; i < b.N; i++ {
					pw.Push(i)
				}
			}, core.Push(q))
			f.Spawn(func(c *sched.Frame) {
				pp := q.BindPop(c)
				for i := 0; i < b.N; i++ {
					pp.Pop()
				}
			}, core.Pop(q))
			f.Sync()
		})
	}
	b.Run("mode=unbounded", func(b *testing.B) { run(b) })
	b.Run("mode=bounded", func(b *testing.B) { run(b, core.Bounded(1<<30)) })
	b.Run("mode=tight", func(b *testing.B) { run(b, core.Bounded(64)) })
}

// --- PR 7: hyperobjects --------------------------------------------------

// BenchmarkReducer prices the reducer write path the way
// BenchmarkSteadyStateAllocs prices Push: a bound handle folding b.N
// values into a task-private view. No locks are on the path and CI
// gates steady-state allocs/op at zero.
func BenchmarkReducer(b *testing.B) {
	b.ReportAllocs()
	rt := sched.New(2)
	rt.Run(func(f *sched.Frame) {
		r := core.NewReducer(f, core.Monoid[int]{
			Identity: func() int { return 0 },
			Combine:  func(into *int, from int) { *into += from },
		})
		b.ResetTimer()
		f.Spawn(func(c *sched.Frame) {
			h := r.BindReduce(c)
			for i := 0; i < b.N; i++ {
				h.Add(i)
			}
		}, core.Reduce(r))
		f.Sync()
		b.StopTimer()
	})
}

// BenchmarkHypermapVsLockedMap compares dedup's two index disciplines
// under writer parallelism: impl=hypermap inserts into task-private
// views (plus the advisory claims probe — the full Put path dedup
// runs), impl=lockedmap is the striped-lock-free baseline of a single
// mutex-guarded map. Keys repeat (16k keyspace), so both exercise the
// insert-if-absent hit and miss paths; ns/op is per insert.
func BenchmarkHypermapVsLockedMap(b *testing.B) {
	const writers = 4
	b.Run("impl=hypermap", func(b *testing.B) {
		b.ReportAllocs()
		rt := sched.New(writers)
		rt.Run(func(f *sched.Frame) {
			m := core.NewHypermap[int, int](f)
			per := b.N/writers + 1
			b.ResetTimer()
			for w := 0; w < writers; w++ {
				w := w
				f.Spawn(func(c *sched.Frame) {
					h := m.BindMap(c)
					for i := 0; i < per; i++ {
						h.Put(i&0x3fff, w)
					}
				}, core.MapWrite(m))
			}
			f.Sync()
			b.StopTimer()
		})
	})
	b.Run("impl=lockedmap", func(b *testing.B) {
		b.ReportAllocs()
		rt := sched.New(writers)
		rt.Run(func(f *sched.Frame) {
			var mu sync.Mutex
			mm := make(map[int]int)
			per := b.N/writers + 1
			b.ResetTimer()
			for w := 0; w < writers; w++ {
				w := w
				f.Spawn(func(c *sched.Frame) {
					for i := 0; i < per; i++ {
						k := i & 0x3fff
						mu.Lock()
						if _, ok := mm[k]; !ok {
							mm[k] = w
						}
						mu.Unlock()
					}
				})
			}
			f.Sync()
			b.StopTimer()
		})
	})
}

// --- Sharded pipelines (PR 8) --------------------------------------------

// BenchmarkSharded prices the shard fan-out's per-element hot path:
// route → per-shard bounded queue → shard worker → in-order merge. The
// fan-out (queues, router, workers, merger) is built once per run and
// amortizes across b.N elements, so steady state must be 0 allocs/op —
// CI gates it. shards=1 vs shards=4 shows what the content-partitioned
// fan-out costs (and buys) against a single pipeline.
func BenchmarkSharded(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			rt := swan.New(runtime.NumCPU())
			rt.Run(func(f *swan.Frame) {
				s := swan.NewSharded(f, swan.ShardConfig{Shards: shards, Bound: 1024},
					func(v uint64) uint64 { return v },
					func(c *swan.Frame, shard int) func(uint64) uint64 {
						return func(v uint64) uint64 { return v * 0x9e3779b97f4a7c15 }
					})
				b.ResetTimer()
				f.Spawn(func(c *swan.Frame) {
					p := s.In().BindPush(c)
					for i := 0; i < b.N; i++ {
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
				b.StopTimer()
			})
		})
	}
}

// BenchmarkShardedLatency runs the open-loop latency harness at a fixed
// offered rate and reports the completion-latency percentiles as custom
// metrics, so BENCH_pr8.json carries the latency curve alongside the
// throughput numbers.
func BenchmarkShardedLatency(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			var r bench.LatencyReport
			for i := 0; i < b.N; i++ {
				r = bench.MeasureLatency(bench.LatencyConfig{
					Workload: "streamstats",
					Shards:   shards,
					Workers:  runtime.NumCPU(),
					Items:    20_000,
					Rate:     200_000,
				})
			}
			b.ReportMetric(float64(r.P50), "p50-ns")
			b.ReportMetric(float64(r.P99), "p99-ns")
			b.ReportMetric(float64(r.P999), "p999-ns")
			b.ReportMetric(float64(r.TTFR), "ttfr-ns")
		})
	}
}

// --- Ablation: steal-half batch stealing ----------------------------------

// BenchmarkAblationStealBatch compares classic single-task stealing
// (cap=1, the pre-PR-8 scheduler) against steal-half batching (cap=8):
// a flat fan-out of short leaf tasks from one producer deque, the shape
// where per-task steal sweeps are pure overhead. steals/op counts
// successful sweeps, stolen-tasks/op what they carried — batching must
// move the same work in fewer sweeps.
func BenchmarkAblationStealBatch(b *testing.B) {
	workers := runtime.NumCPU()
	if workers < 4 {
		workers = 4
	}
	const leaves = 256
	for _, cap := range []int{1, 8} {
		b.Run(fmt.Sprintf("cap=%d", cap), func(b *testing.B) {
			prev := sched.StealBatchCap()
			sched.SetStealBatchCap(cap)
			defer sched.SetStealBatchCap(prev)
			rt := sched.New(workers) // freezes the cap into the pool
			var sink uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rt.Run(func(f *sched.Frame) {
					f.SpawnN(leaves, func(c *sched.Frame, j int) {
						x := uint64(j) + 1
						for k := 0; k < 4000; k++ {
							x ^= x << 13
							x ^= x >> 7
							x ^= x << 17
						}
						if x == 0 {
							sink++
						}
					})
					f.Sync()
				})
			}
			b.StopTimer()
			s := rt.Stats()
			b.ReportMetric(float64(s.Steals)/float64(b.N), "steals/op")
			b.ReportMetric(float64(s.StolenTasks)/float64(b.N), "stolen-tasks/op")
		})
	}
}
