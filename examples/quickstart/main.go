// Quickstart: the paper's Figure 2 — a recursively parallel producer
// feeding one consumer through a hyperqueue. The program is scale-free
// (the worker count appears in exactly one place) and deterministic: the
// consumer always observes f(0), f(1), f(2), ... in order, no matter how
// the producer tree is scheduled.
//
// Run: go run ./examples/quickstart [-workers N] [-total N]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/swan"
)

func f(n int) int { return n * n }

func main() {
	workers := flag.Int("workers", runtime.NumCPU(), "worker slots (the only machine-dependent knob)")
	total := flag.Int("total", 1000, "values to stream")
	flag.Parse()

	rt := swan.New(*workers)
	var sum int64
	consumed := 0
	inOrder := true

	rt.Run(func(fr *swan.Frame) {
		q := swan.NewQueue[int](fr)

		// Producer: divide and conquer, exactly Figure 2.
		var produce func(c *swan.Frame, lo, hi int)
		produce = func(c *swan.Frame, lo, hi int) {
			if hi-lo <= 10 {
				pw := q.BindPush(c) // resolve privileges once per leaf task
				for n := lo; n < hi; n++ {
					pw.Push(f(n))
				}
				return
			}
			mid := (lo + hi) / 2
			c.Spawn(func(g *swan.Frame) { produce(g, lo, mid) }, swan.Push(q))
			c.Spawn(func(g *swan.Frame) { produce(g, mid, hi) }, swan.Push(q))
			c.Sync()
		}
		fr.Spawn(func(c *swan.Frame) { produce(c, 0, *total) }, swan.Push(q))

		// Consumer: runs concurrently with the producers.
		fr.Spawn(func(c *swan.Frame) {
			pp := q.BindPop(c) // acquire the consumer role once
			expect := 0
			for !pp.Empty() {
				v := pp.Pop()
				if v != f(expect) {
					inOrder = false
				}
				expect++
				consumed++
				sum += int64(v)
			}
		}, swan.Pop(q))

		fr.Sync()
	})

	fmt.Printf("consumed %d values on %d workers, sum=%d\n", consumed, *workers, sum)
	if inOrder {
		fmt.Println("deterministic: values arrived in serial program order ✓")
	} else {
		fmt.Println("ORDER VIOLATION — this would be a bug")
		os.Exit(1)
	}
}
