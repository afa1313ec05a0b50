// soakfuzz drives the long-horizon lifecycle fuzzer (internal/soak): a
// config-selected mix of queue lifecycle churn, hyperobject folds,
// sharded fan-outs and embedded qcheck programs against one long-lived
// runtime, with striped invariant sweeps, pool-accounting audits and
// replay-window determinism checks.
//
// A failure prints a quickcheck-style FAIL line whose replay command
// re-executes exactly the failing window:
//
//	FAIL soak config=ci window=17 wseed=1041 step=35102: ...
//	replay: go run ./cmd/soakfuzz -config ci -workers 4 -seed 1041 -steps 2000
//
// -fault injects a deliberate bug at the given global step (-faultkind
// selects the class: a model-invisible value, or a spurious root-scope
// cancellation); the run must then fail, deterministically — the
// harness's own smoke test.
//
// SIGINT cancels the current window through the cancellation API: the
// run drains cleanly (parked producers and consumers unwind, the pool
// stays balanced) and the final stats are printed before exiting.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"repro/internal/soak"
)

func main() {
	var (
		steps   = flag.Int64("steps", 100_000, "stepper operations to execute")
		seed    = flag.Uint64("seed", 1, "base seed (window i runs from seed+i)")
		config  = flag.String("config", "default", "config preset: "+strings.Join(soak.ConfigNames(), ", "))
		workers = flag.Int("workers", 4, "runtime worker count")
		fault   = flag.Int64("fault", 0, "inject a deliberate bug at this global step (0 = off)")
		fkind   = flag.String("faultkind", soak.FaultValue, "injected bug class: value or cancel")
		oplog   = flag.Bool("oplog", true, "print the failing window's op log on failure")
		verbose = flag.Bool("v", false, "print progress to stderr")
	)
	flag.Parse()

	cfg, ok := soak.LookupConfig(*config)
	if !ok {
		fmt.Fprintf(os.Stderr, "soakfuzz: unknown config %q (have: %s)\n",
			*config, strings.Join(soak.ConfigNames(), ", "))
		os.Exit(2)
	}
	opt := soak.Options{Workers: *workers, FaultStep: *fault, FaultKind: *fkind}
	if *verbose {
		opt.Progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	r, err := soak.New(cfg, opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "soakfuzz: %v\n", err)
		os.Exit(2)
	}

	// SIGINT cancels the in-flight window through the runtime's cancel
	// scope: parked tasks unwind, the window drains, and Run returns with
	// the report intact. A second SIGINT kills the process the usual way.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "soakfuzz: interrupt — canceling the in-flight window")
		signal.Stop(sig)
		r.Stop()
	}()

	rep, fail := r.Run(*seed, *steps)
	if fail != nil {
		fmt.Println(fail.FailLine())
		if *oplog && fail.OpLog != "" {
			fmt.Println("--- op log of the failing window ---")
			fmt.Print(fail.OpLog)
		}
		os.Exit(1)
	}
	verdict := "OK"
	if rep.Interrupted {
		verdict = "interrupted (clean drain)"
	}
	fmt.Printf("soakfuzz: %s — %d steps in %d windows (config=%s workers=%d seed=%d)\n",
		verdict, rep.Steps, rep.Windows, cfg.Name, *workers, *seed)
	fmt.Printf("  sweeps=%d audits=%d replays=%d rebuilds=%d recycles=%d\n",
		rep.Sweeps, rep.Audits, rep.Replays, rep.Rebuilds, rep.Recycles)
	fmt.Printf("  qchecks=%d shardeds=%d handoffs=%d chaos=%d pushed=%d popped=%d\n",
		rep.Qchecks, rep.Shardeds, rep.Handoffs, rep.Chaos, rep.Pushed, rep.Popped)
	fmt.Printf("  segments: allocs=%d pooled=%d retired=%d recycled-queues=%d\n",
		rep.FinalStats.SegmentAllocs, rep.FinalStats.PooledSegments,
		rep.Retired, rep.FinalStats.RecycledQueues)
	fmt.Printf("  robustness: canceled-runs=%d task-panics=%d sheds=%d\n",
		rep.FinalStats.CanceledRuns, rep.FinalStats.TaskPanics, rep.FinalStats.Sheds)
}
