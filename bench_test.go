// Root benchmarks: the two the repo still runs by name. make bench-ratio
// gates BenchmarkAblationQueueVsChannel's hyperqueue/channel ratio, and
// BenchmarkPrepareCompleteContention is the before/after check for the
// registry lock. Per-layer costs live in the benchmark ladder
// (benchmark/), the allocation claims in the packages' AllocsPerRun
// tests, and the paper's tables and figures in cmd/paperbench.
package repro_test

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
)

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

// --- Prepare/Complete churn under a popping consumer ----------------------

// BenchmarkPrepareCompleteContention measures the structural hot path the
// consMu/regMu lock split serves: a stream of short-lived sibling
// producer tasks (Prepare/Complete churn on the registry lock) feeding a
// concurrently popping consumer. Push wake-ups are an atomic load and
// Prepare/Complete take only the registry lock. The sub-benchmark keeps
// its old name; the single-mutex side of the old ablation is gone (it
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
