// Command quickcheck is a user-facing verifier for the hyperqueue's
// central property: serializability. It generates random task trees that
// push, pop, drain and delegate privileges, computes the serial-elision
// outcome with a trivial interpreter, executes the same program on the
// real runtime at several worker counts and segment sizes, and compares.
// The program generator and executor live in internal/qcheck, shared
// with the internal/core regression tests, so any seed reported here can
// be replayed there.
//
// Usage:
//
//	quickcheck [-n 200] [-seed 1] [-workers N] [-queues Q] [-v]
//
// Each failing program is reported once, with every failing
// (workers, segcap) configuration aggregated on a single FAIL line; use
// -workers to pin the worker count for a targeted reproduction. With
// -queues 1 (the default) programs come from the original frozen
// generator, so historical seed reports stay reproducible; -queues 2 or
// higher switches to the extended multi-queue generator (qcheck
// GenerateMulti), whose programs also Sync mid-task, Call children
// synchronously, consume through Empty-guarded TryPop and
// ReadSlice/ConsumeRead runs, and fold values into a shared reducer
// checked against its serial-order oracle — covering cross-queue
// interleavings, the §5.2 slice interface, the lock-free consumer miss
// path, and the hyperobject merge discipline — a failure there is
// reported as (seed, queues). Exit status 0 means every program behaved
// exactly like its serial elision.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro/internal/qcheck"
)

func main() {
	n := flag.Int("n", 200, "number of random programs")
	seed := flag.Uint64("seed", 1, "base seed")
	workers := flag.Int("workers", 0, "worker count to test (0 = sweep 1, 2 and NumCPU)")
	queues := flag.Int("queues", 1, "hyperqueues per program (1 = original frozen generator, >1 = multi-queue generator with Sync/Call/TryPop/ReadSlice actions)")
	sharded := flag.Bool("sharded", false, "check random swan.Sharded fan-outs (random geometry, tiny bounds) against the serial elision instead of task-tree programs")
	verbose := flag.Bool("v", false, "log each program")
	flag.Parse()

	workerSet := []int{1, 2, runtime.NumCPU()}
	if *workers > 0 {
		workerSet = []int{*workers}
	}
	workerSet = dedup(workerSet)
	segSet := []int{1, 7, 256}

	if *sharded {
		failed := 0
		for i := 0; i < *n; i++ {
			p := qcheck.GenerateSharded(*seed + uint64(i))
			var badConfigs []string
			firstBadWorkers := 0
			for _, w := range workerSet {
				if !p.Check(w) {
					badConfigs = append(badConfigs, fmt.Sprintf("workers=%d", w))
					if firstBadWorkers == 0 {
						firstBadWorkers = w
					}
				}
			}
			if len(badConfigs) > 0 {
				failed++
				fmt.Printf("FAIL sharded seed=%d values=%d shards=%d bound=%d segcap=%d (%s)\n"+
					"  replay: go run ./cmd/quickcheck -sharded -n 1 -seed %d -workers %d\n",
					p.Seed, p.Values, p.Shards, p.Bound, p.SegCap, strings.Join(badConfigs, ", "),
					p.Seed, firstBadWorkers)
			} else if *verbose {
				fmt.Printf("sharded %3d: %d values, %d shards, bound %d — ok\n", i, p.Values, p.Shards, p.Bound)
			}
		}
		if failed > 0 {
			fmt.Printf("%d of %d sharded programs FAILED\n", failed, *n)
			os.Exit(1)
		}
		fmt.Printf("quickcheck: %d random sharded fan-outs × %d workers — all match the serial elision ✓\n",
			*n, len(workerSet))
		return
	}

	failedPrograms := 0
	for i := 0; i < *n; i++ {
		var p *qcheck.Program
		if *queues > 1 {
			p = qcheck.GenerateMulti(*seed+uint64(i), *queues)
		} else {
			p = qcheck.Generate(*seed + uint64(i))
		}
		var badConfigs []string
		var firstBad *qcheck.Outcome
		firstBadWorkers := 0
		for _, w := range workerSet {
			for _, s := range segSet {
				out, ok := p.CheckFull(w, s)
				if !ok {
					badConfigs = append(badConfigs, fmt.Sprintf("workers=%d segcap=%d", w, s))
					if firstBad == nil {
						firstBad = &out
						firstBadWorkers = w
					}
				}
			}
		}
		if len(badConfigs) > 0 {
			failedPrograms++
			fmt.Printf("FAIL seed=%d queues=%d (%s)\n  got:    %v\n  oracle: %v\n  reducer got:    %v\n  reducer oracle: %v\n"+
				"  replay: go run ./cmd/quickcheck -n 1 -seed %d -queues %d -workers %d\n",
				p.Seed, p.Queues, strings.Join(badConfigs, ", "),
				firstBad.Consumed, p.Oracle, firstBad.Reduced, p.RedOracle,
				p.Seed, p.Queues, firstBadWorkers)
		} else if *verbose {
			fmt.Printf("program %3d: %d tasks, %d values, %d queues — ok\n", i, p.Tasks, p.Values, p.Queues)
		}
	}
	if failedPrograms > 0 {
		fmt.Printf("%d of %d programs FAILED (queues=%d)\n", failedPrograms, *n, *queues)
		os.Exit(1)
	}
	fmt.Printf("quickcheck: %d random programs × %d workers × %d segment sizes × %d queues — all match the serial elision ✓\n",
		*n, len(workerSet), len(segSet), *queues)
}

func dedup(xs []int) []int {
	seen := map[int]bool{}
	out := xs[:0]
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}
