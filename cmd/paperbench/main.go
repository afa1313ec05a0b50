// Command paperbench regenerates the paper's evaluation artifacts
// (Table 1, Table 2, Figure 8, Figure 11, and the §6.3 bzip2 results) on
// this machine and prints them as Markdown tables.
//
// Usage:
//
//	paperbench [-exp all|NAME] [-scale N] [-cores N] [-reps N] [-stats] [-metrics addr]
//
// -h lists the experiment names. Every output the Figure 8, Figure 11 and
// bzip2 sweeps time is checked (against the serial run's, or by
// reassembling dedup's stream), and a failed check exits 1. Scale 1 keeps
// each experiment in the seconds range; the paper-like regime is -scale 4
// or higher. -metrics serves a live Prometheus-text
// endpoint over every runtime the experiments create (curl the printed
// URL while they run); -stats prints the same counters, including one
// row per metered queue, after the experiments finish.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"

	"repro/internal/bench"
)

// experiments are paperbench's experiments in -exp all order.
var experiments = []struct {
	name string
	run  func(bench.Config) (*bench.Table, error)
}{
	{"table1", unchecked(bench.Table1)},
	{"table2", unchecked(bench.Table2)},
	{"fig8", bench.Fig8},
	{"fig11", bench.Fig11},
	{"bzip2", bench.Bzip2},
	{"latency", unchecked(bench.Latency)},
}

// unchecked adapts an experiment whose output has no check.
func unchecked(f func(bench.Config) *bench.Table) func(bench.Config) (*bench.Table, error) {
	return func(c bench.Config) (*bench.Table, error) { return f(c), nil }
}

func main() {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	exp := flag.String("exp", "all", "experiment: all, "+strings.Join(names, ", "))
	scale := flag.Int("scale", 1, "workload scale factor")
	cores := flag.Int("cores", runtime.NumCPU(), "maximum cores to sweep")
	reps := flag.Int("reps", 2, "repetitions per configuration (best-of)")
	showStats := flag.Bool("stats", false, "print per-runtime resource stats (pooled segments, recycled queues, spawns/steals, metered queues) after the experiments")
	metricsAddr := flag.String("metrics", "", "serve a live Prometheus-text metrics endpoint on this address while experiments run (e.g. 127.0.0.1:9090; empty disables)")
	flag.Parse()

	if *exp != "all" && !slices.Contains(names, *exp) {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	cfg := bench.Config{MaxCores: *cores, Reps: *reps, Scale: *scale}
	// Collection is always on here (the process is short-lived, the
	// references are cheap) so a SIGINT can reach every live runtime's
	// cancel scope: parked tasks unwind, the in-flight experiment drains,
	// and the stats report still renders before exit.
	bench.CollectRuntimeStats(true)
	var interrupted atomic.Bool
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "paperbench: interrupt — canceling live runtimes, draining")
		signal.Stop(sig)
		interrupted.Store(true)
		bench.CancelCollected(nil)
	}()
	if *metricsAddr != "" {
		addr, err := bench.ServeMetrics(*metricsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "metrics endpoint: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("serving metrics at http://%s/metrics\n", addr)
	}
	fmt.Printf("# Hyperqueue reproduction — %d cores available, scale %d\n\n", runtime.NumCPU(), *scale)
	for _, e := range experiments {
		if (*exp != "all" && *exp != e.name) || interrupted.Load() {
			continue
		}
		t, err := e.run(cfg)
		if err != nil {
			if interrupted.Load() {
				break // a canceled runtime cut the run short
			}
			fmt.Fprintf(os.Stderr, "paperbench: %s: check failed: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Println(t.Format())
	}
	if interrupted.Load() {
		fmt.Fprintln(os.Stderr, "paperbench: interrupted — results above the interrupt are valid, later rows drained early")
		fmt.Println(bench.RuntimeStatsReport())
		os.Exit(130)
	}
	if *showStats {
		fmt.Println(bench.RuntimeStatsReport())
	}
}
