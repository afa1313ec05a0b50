package swan_test

import (
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/swan"
)

// ExampleQueue demonstrates the paper's core guarantee: a consumer sees
// values in serial program order even with parallel producers.
func ExampleQueue() {
	rt := swan.New(4)
	rt.Run(func(f *swan.Frame) {
		q := swan.NewQueue[int](f)
		// Two producers spawned in program order; their values appear to
		// the consumer in exactly that order.
		f.Spawn(func(c *swan.Frame) {
			q.Push(c, 1)
			q.Push(c, 2)
		}, swan.Push(q))
		f.Spawn(func(c *swan.Frame) {
			q.Push(c, 3)
		}, swan.Push(q))
		f.Spawn(func(c *swan.Frame) {
			for !q.Empty(c) {
				fmt.Println(q.Pop(c))
			}
		}, swan.Pop(q))
		f.Sync()
	})
	// Output:
	// 1
	// 2
	// 3
}

// ExampleVersioned demonstrates Figure 1's task-dataflow pattern:
// renamed producers run in parallel, inoutdep consumers serialize.
func ExampleVersioned() {
	rt := swan.New(4)
	rt.Run(func(f *swan.Frame) {
		value := swan.NewVersioned(0)
		sum := swan.NewVersioned(0)
		for i := 1; i <= 3; i++ {
			i := i
			f.Spawn(func(c *swan.Frame) {
				value.Set(c, i*10) // produce: renaming, never waits
			}, swan.Out(value))
			f.Spawn(func(c *swan.Frame) {
				sum.Set(c, sum.Get(c)+value.Get(c)) // consume: in order
			}, swan.In(value), swan.InOut(sum))
		}
		f.Sync()
		fmt.Println(sum.Get(f))
	})
	// Output:
	// 60
}

// ExampleTransformEach shows the ordered parallel-transform idiom used by
// the paper's ferret and bzip2 implementations.
func ExampleTransformEach() {
	rt := swan.New(4)
	rt.Run(func(f *swan.Frame) {
		out := swan.NewQueue[int](f)
		f.Spawn(func(mid *swan.Frame) {
			in := swan.NewQueue[int](mid)
			swan.Produce(mid, in, func(c *swan.Frame, push func(int)) {
				for i := 1; i <= 5; i++ {
					push(i)
				}
			})
			// Squares are computed in parallel but delivered in order.
			swan.TransformEach(mid, in, out, func(v int) int { return v * v })
		}, swan.Push(out))
		swan.Drain(f, out, func(v int) { fmt.Println(v) })
		f.Sync()
	})
	// Output:
	// 1
	// 4
	// 9
	// 16
	// 25
}

// ExampleNew pins the scale-free guarantee: the same program produces the
// same result whatever the worker count.
func ExampleNew() {
	for _, workers := range []int{1, 2, 4} {
		rt := swan.New(workers)
		total := 0
		rt.Run(func(f *swan.Frame) {
			q := swan.NewQueue[int](f)
			f.SpawnN(4, func(c *swan.Frame, i int) {
				q.Push(c, i+1)
			}, swan.Push(q))
			f.Spawn(func(c *swan.Frame) {
				for !q.Empty(c) {
					total += q.Pop(c)
				}
			}, swan.Pop(q))
			f.Sync()
		})
		fmt.Printf("workers=%d: %d\n", workers, total)
	}
	// Output:
	// workers=1: 10
	// workers=2: 10
	// workers=4: 10
}

// ExampleFrame_SpawnBatch publishes a wave of producer tasks with one
// scheduler operation (one deque store, one wake sweep). Dep Prepare
// still runs per child in program order, so the consumer's view of the
// stream is identical to consecutive Spawn calls.
func ExampleFrame_SpawnBatch() {
	rt := swan.New(4)
	rt.Run(func(f *swan.Frame) {
		q := swan.NewQueue[int](f)
		children := make([]swan.BatchChild, 0, 3)
		for i := 0; i < 3; i++ {
			base := i * 10
			children = append(children, swan.BatchChild{
				Body: func(c *swan.Frame) {
					q.Push(c, base)
					q.Push(c, base+1)
				},
				Deps: []swan.Dep{swan.Push(q)},
			})
		}
		f.SpawnBatch(children)
		swan.Drain(f, q, func(v int) { fmt.Println(v) })
		f.Sync()
	})
	// Output:
	// 0
	// 1
	// 10
	// 11
	// 20
	// 21
}

// ExampleQueue_Recycle runs several pipeline instances through one
// queue: after a Sync covering every task that held privileges, the
// drained queue is reset in place — its segments return to the
// runtime-wide pool and the next round reuses them, so churn-heavy
// programs (dedup creates one short-lived queue per coarse chunk) stop
// paying the construction cost per instance.
func ExampleQueue_Recycle() {
	rt := swan.New(2)
	rt.Run(func(f *swan.Frame) {
		q := swan.NewQueue[int](f)
		for round := 0; round < 3; round++ {
			base := round * 100
			f.Spawn(func(c *swan.Frame) {
				q.Push(c, base)
				q.Push(c, base+1)
			}, swan.Push(q))
			f.Spawn(func(c *swan.Frame) {
				sum := 0
				for !q.Empty(c) {
					sum += q.Pop(c)
				}
				fmt.Println(sum)
			}, swan.Pop(q))
			f.Sync()     // quiesce: both children completed
			q.Recycle(f) // drained + quiescent: reuse it next round
		}
	})
	// Output:
	// 1
	// 201
	// 401
}

// ExampleQueue_BindPush shows the bound-handle hot path: each task
// resolves its queue privileges once (BindPush / BindPop) and then moves
// values through straight-line Push/Pop calls — the per-element regime
// where the hyperqueue matches a buffered channel. Bulk transfers
// (PushSlice, PopInto) cross segment boundaries in one call and pay the
// consumer wake-up probe once per call instead of once per element.
func ExampleQueue_BindPush() {
	rt := swan.New(2)
	rt.Run(func(f *swan.Frame) {
		q := swan.NewQueue[int](f)
		f.Spawn(func(c *swan.Frame) {
			pw := q.BindPush(c)       // privilege resolution: once per body
			pw.PushSlice([]int{1, 2}) // bulk: one wake-up probe
			pw.Push(3)                // scalar: straight-line ring append
		}, swan.Push(q))
		f.Spawn(func(c *swan.Frame) {
			pp := q.BindPop(c) // consumer role acquired once
			buf := make([]int, 2)
			for !pp.Empty() {
				if n := pp.PopInto(buf); n > 0 { // bulk: values in serial order
					fmt.Println(buf[:n])
				} else {
					fmt.Println(pp.Pop()) // a value is in flight: scalar pop
				}
			}
		}, swan.Pop(q))
		f.Sync()
	})
	// Output:
	// [1 2]
	// [3]
}

// ExampleQueue_selectiveSync is the paper's Figure 6: the owner waits for
// its consumer child before inspecting what a later producer left behind.
func ExampleQueue_selectiveSync() {
	rt := swan.New(4)
	rt.Run(func(f *swan.Frame) {
		q := swan.NewQueue[int](f)
		f.Spawn(func(c *swan.Frame) { q.Push(c, 1) }, swan.Push(q))
		f.Spawn(func(c *swan.Frame) {
			for !q.Empty(c) {
				q.Pop(c) // drains everything visible to it
			}
		}, swan.Pop(q))
		f.Spawn(func(c *swan.Frame) { q.Push(c, 2) }, swan.Push(q))
		q.SyncPop(f) // selective sync (§5.5): wait for the consumer only
		fmt.Println(q.Pop(f))
	})
	// Output:
	// 2
}

// ExampleBounded shows a flow-controlled queue: the producer may never
// hold more than 2 values in flight, so a fast producer is paced by its
// consumer instead of growing the queue without limit. The values and
// their order are exactly those of the unbounded queue — backpressure
// changes scheduling, never semantics.
func ExampleBounded() {
	rt := swan.New(2)
	rt.Run(func(f *swan.Frame) {
		q := swan.NewQueue[int](f, swan.Bounded(2))
		f.Spawn(func(c *swan.Frame) {
			for i := 1; i <= 5; i++ {
				q.Push(c, i) // blocks whenever 2 values are buffered
			}
		}, swan.Push(q))
		f.Spawn(func(c *swan.Frame) {
			for !q.Empty(c) {
				fmt.Println(q.Pop(c))
			}
		}, swan.Pop(q))
		f.Sync()
	})
	// Output:
	// 1
	// 2
	// 3
	// 4
	// 5
}

// ExampleBounded_blocking is a producer-blocking round trip observed
// through the queue meter: with bound 1 the producer can never be more
// than one value ahead, so after the run the high-water mark is exactly
// 1 and the push/pop totals balance to zero occupancy.
func ExampleBounded_blocking() {
	rt := swan.New(2)
	rt.Run(func(f *swan.Frame) {
		q := swan.NewQueue[int](f, swan.Bounded(1), swan.Named("roundtrip"))
		swan.Produce(f, q, func(c *swan.Frame, push func(int)) {
			for i := 0; i < 100; i++ {
				push(i)
			}
		})
		swan.Drain(f, q, func(int) {})
		f.Sync()
	})
	for _, qs := range swan.Stats(rt).Queues {
		fmt.Printf("%s: pushed=%d popped=%d occupancy=%d high-water=%d\n",
			qs.Name, qs.Pushed, qs.Popped, qs.Occupancy, qs.HighWater)
	}
	// Output:
	// roundtrip: pushed=100 popped=100 occupancy=0 high-water=1
}

// ExampleServeMetrics starts the metrics endpoint over a runtime, runs
// a bounded pipeline, and scrapes the Prometheus text exposition with a
// plain HTTP GET — exactly what a Prometheus scrape job would do.
func ExampleServeMetrics() {
	rt := swan.New(2)
	ms, err := swan.ServeMetrics(rt, "") // empty addr: a free localhost port
	if err != nil {
		fmt.Println("serve:", err)
		return
	}
	defer ms.Close()

	rt.Run(func(f *swan.Frame) {
		q := swan.NewQueue[int](f, swan.Bounded(8), swan.Named("stage"))
		swan.Produce(f, q, func(c *swan.Frame, push func(int)) {
			for i := 0; i < 1000; i++ {
				push(i)
			}
		})
		swan.Drain(f, q, func(int) {})
		f.Sync()
	})

	resp, err := http.Get(ms.URL())
	if err != nil {
		fmt.Println("scrape:", err)
		return
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, metric := range []string{
		`swan_queue_bound{queue="stage"} 8`,
		`swan_queue_pushed_total{queue="stage"} 1000`,
		`swan_queue_popped_total{queue="stage"} 1000`,
		`swan_queue_occupancy{queue="stage"} 0`,
	} {
		fmt.Println(strings.Contains(string(body), metric))
	}
	// Output:
	// true
	// true
	// true
	// true
}

// ExampleReducer shows the deterministic parallel fold: writer tasks
// spawned with Reduce get private views, Add never locks, and the
// runtime merges views in serial program order — so an order-sensitive
// monoid (list append) still produces the serial elision's result at
// any worker count.
func ExampleReducer() {
	rt := swan.New(4)
	rt.Run(func(f *swan.Frame) {
		r := swan.NewReducer(f, swan.Monoid[[]int]{
			Identity: func() []int { return nil },
			Combine:  func(into *[]int, from []int) { *into = append(*into, from...) },
		})
		for i := 0; i < 5; i++ {
			i := i
			f.Spawn(func(c *swan.Frame) {
				r.BindReduce(c).Add([]int{i})
			}, swan.Reduce(r))
		}
		f.Sync()
		fmt.Println(r.Value(f))
	})
	// Output:
	// [0 1 2 3 4]
}

// ExampleHypermap shows the first-writer-wins keyed index: every writer
// Puts into a private view and the serially-first writer of a key wins
// deterministically, whatever order the tasks physically ran in. Put's
// dup report may be used to skip duplicate-only work (it is sound but
// conservative); the merged view read after Sync decides the output.
func ExampleHypermap() {
	rt := swan.New(4)
	rt.Run(func(f *swan.Frame) {
		m := swan.NewHypermap[string, int](f)
		for i := 0; i < 4; i++ {
			i := i
			f.Spawn(func(c *swan.Frame) {
				m.BindMap(c).Put("winner", i) // all race; task 0 is serially first
			}, swan.MapWrite(m))
		}
		f.Sync()
		v, _ := m.Get(f, "winner")
		fmt.Println(v)
	})
	// Output:
	// 0
}
