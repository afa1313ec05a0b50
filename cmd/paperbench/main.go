// Command paperbench regenerates the paper's evaluation artifacts
// (Table 1, Table 2, Figure 8, Figure 11, and the §6.3 bzip2 results) on
// this machine and prints them as Markdown tables.
//
// Usage:
//
//	paperbench [-exp all|table1|table2|fig8|fig11|bzip2|latency] [-scale N] [-cores N] [-reps N] [-stats] [-metrics addr]
//
// Scale 1 keeps each experiment in the seconds range; the paper-like
// regime is -scale 4 or higher. -metrics serves a live Prometheus-text
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
	"sync/atomic"

	"repro/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment: all, table1, table2, fig8, fig11, bzip2, latency")
	scale := flag.Int("scale", 1, "workload scale factor")
	cores := flag.Int("cores", runtime.NumCPU(), "maximum cores to sweep")
	reps := flag.Int("reps", 2, "repetitions per configuration (best-of)")
	showStats := flag.Bool("stats", false, "print per-runtime resource stats (pooled segments, recycled queues, spawns/steals, metered queues) after the experiments")
	metricsAddr := flag.String("metrics", "", "serve a live Prometheus-text metrics endpoint on this address while experiments run (e.g. 127.0.0.1:9090; empty disables)")
	flag.Parse()

	cfg := bench.Config{MaxCores: *cores, Reps: *reps, Scale: *scale}
	run := func(name string) {
		switch name {
		case "table1":
			fmt.Println(bench.Table1(cfg).Format())
		case "table2":
			fmt.Println(bench.Table2(cfg).Format())
		case "fig8":
			t, _ := bench.Fig8(cfg)
			fmt.Println(t.Format())
		case "fig11":
			t, _ := bench.Fig11(cfg)
			fmt.Println(t.Format())
		case "bzip2":
			t, _ := bench.Bzip2(cfg)
			fmt.Println(t.Format())
		case "latency":
			fmt.Println(bench.Latency(cfg).Format())
		default:
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
			os.Exit(2)
		}
	}
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
	if *exp == "all" {
		for _, e := range []string{"table1", "table2", "fig8", "fig11", "bzip2", "latency"} {
			if interrupted.Load() {
				break
			}
			run(e)
		}
	} else {
		run(*exp)
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
