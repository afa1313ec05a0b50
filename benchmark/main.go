// Command benchmark is the repository's performance instrument: five
// workloads that stress different layers of the hyperqueue runtime, the
// end-to-end metrics a user of the runtime would see, and a traced pass
// that prices each layer on its own. BENCHMARK.json at the repository
// root names the metrics and their bounds; README.md in this directory
// explains each of them.
//
//	go run ./benchmark -workload elem_stream -seed 7        end-to-end metrics of one workload
//	go run ./benchmark -workload all -out runs.jsonl        all five, one record per workload appended
//	go run ./benchmark -workload fanin_tree -trace 1        per-layer metrics and benchmark/out/trace-fanin_tree.json
//	go run ./benchmark -compare a.jsonl b.jsonl             verdict per (metric, workload)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/swan"
)

// metric is one measured value as the result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// result is the record of one run of one workload: the last line of
// standard output carries the first four fields, -out files all of them.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`

	Workload string       `json:"workload,omitempty"`
	Traced   bool         `json:"traced,omitempty"`
	Reps     int          `json:"reps,omitempty"`
	Env      *environment `json:"env,omitempty"`
	// Samples describes the repetitions behind each metric that is a
	// median over them, and Notes the latency distributions: both are
	// printed, neither is part of the result line.
	Samples map[string]sampleSummary `json:"samples,omitempty"`
	Notes   []string                 `json:"notes,omitempty"`
}

// sampleSummary is the quartiles and count of the samples a reported
// median was taken over.
type sampleSummary struct {
	Q1 float64 `json:"q1"`
	Q3 float64 `json:"q3"`
	N  int     `json:"n"`
}

// setMedian reports the median of xs under name and keeps its quartiles.
func (r *result) setMedian(name, unit string, xs []float64) {
	q1, med, q3 := quartiles(xs)
	r.Metrics.set(name, unit, med)
	if r.Samples == nil {
		r.Samples = map[string]sampleSummary{}
	}
	r.Samples[name] = sampleSummary{Q1: q1, Q3: q3, N: len(xs)}
}

// add counts one repetition's operations into the run's totals.
func (r *result) add(rep repResult) {
	r.Attempted += rep.items
	r.Failed += rep.failed
	r.Reps++
}

// resultLine is the object the contract wants as the last line of
// standard output: exactly correct, attempted, failed and metrics.
func resultLine(r result) result {
	return result{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics}
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run: all, or one of dedup_app, elem_stream, fanin_tree, shard_stream, shard_paced")
		seed    = flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
		seconds = flag.Float64("seconds", 18, "measuring time of a run, set-up not included")
		trace   = flag.Int("trace", 0, "1 runs the traced pass (per-layer metrics) instead of the end-to-end pass")
		out     = flag.String("out", "", "append each run's record to this file, one JSON object per line")
		outDir  = flag.String("outdir", filepath.Join("benchmark", "out"), "directory the traced pass writes trace-<workload>.json into")
		compare = flag.Bool("compare", false, "compare two -out files: benchmark -compare A B")
		spec    = flag.String("spec", "BENCHMARK.json", "the benchmark contract -compare takes bounds from")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: benchmark -compare A.jsonl B.jsonl")
		}
		os.Exit(compareFiles(os.Stdout, *spec, flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 {
		fatal("unexpected arguments %v", flag.Args())
	}
	env, err := probeEnvironment()
	if err != nil {
		fatal("%v", err)
	}
	env.Seed = *seed
	env.Seconds = *seconds
	fmt.Printf("# nproc=%d GOMAXPROCS=%d %s cpu=%q commit=%s seed=%d load1=%.2f\n",
		env.NProc, env.GoMaxProcs, env.GoVersion, env.CPUModel, env.Commit, env.Seed, env.Load1)
	if env.Load1 > 0.5 {
		fmt.Fprintf(os.Stderr, "benchmark: warning: 1-minute load average is %.2f; timings will be noisy\n", env.Load1)
	}

	names := []string{*name}
	if *name == "all" {
		names = workloadNames
	}
	budget := time.Duration(*seconds * float64(time.Second))
	ok := true
	var last result
	for _, n := range names {
		w, err := newWorkload(n, fullSizes, env.GoMaxProcs)
		if err != nil {
			fatal("%v", err)
		}
		var res result
		if *trace != 0 {
			res = runTraced(w, n, *seed, budget, fullSizes, env, *outDir)
		} else {
			res = runEndToEnd(w, *seed, budget)
		}
		res.Workload, res.Env = n, &env
		printResult(res)
		if *out != "" {
			if err := appendRecord(*out, res); err != nil {
				fatal("%v", err)
			}
		}
		ok = ok && res.Correct
		last = res
	}
	line, err := json.Marshal(resultLine(last))
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println(string(line))
	if !ok {
		os.Exit(1)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

func printResult(r result) {
	fmt.Printf("## %s  reps=%d ops_attempted=%d ops_failed=%d\n", r.Workload, r.Reps, r.Attempted, r.Failed)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-28s %16.6g %-8s", n, r.Metrics[n].Value, r.Metrics[n].Unit)
		if q, ok := r.Samples[n]; ok {
			fmt.Printf("  median of %d, quartiles %.6g .. %.6g", q.N, q.Q1, q.Q3)
		}
		fmt.Println()
	}
	for _, note := range r.Notes {
		fmt.Println("#", note)
	}
}

func appendRecord(path string, r result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// setupRounds is how many times a run sets its workload up; setup_s is
// the median, so that one slow page-in does not read as a regression.
const setupRounds = 3

// runEndToEnd is the untraced pass: set up, then repeat the workload in
// a closed loop — each repetition starts when the previous one finished
// — until the budget is spent, and report the median over repetitions.
func runEndToEnd(w workload, seed uint64, budget time.Duration) result {
	setups := make([]float64, setupRounds)
	for i := range setups {
		t0 := time.Now()
		w.setup(seed, budget)
		setups[i] = time.Since(t0).Seconds()
	}
	runtime.GC()

	var rate, allocs, cpu []float64
	res := result{Metrics: metricSet{}}
	start := time.Now()
	var lastRep time.Duration
	for len(rate) < 3 || time.Since(start)+lastRep < budget {
		r := measureRep(w, nil)
		lastRep = r.wall
		res.add(r.repResult)
		rate = append(rate, r.rate())
		allocs = append(allocs, float64(r.mallocs)/float64(r.items))
		cpu = append(cpu, float64(r.cpu)/1e3/float64(r.items))
		if r.paced != nil {
			res.Notes = append(res.Notes, r.paced.describe("main"))
			break // the open-loop phase is the whole run
		}
	}
	res.Correct = res.Failed == 0
	res.setMedian("setup_s", "s", setups)
	res.setMedian("items_per_s", "items/s", rate)
	res.setMedian("allocs_per_item", "count", allocs)
	res.setMedian("cpu_us_per_item", "us", cpu)
	return res
}

// measuredRep is one repetition with the process-level costs around it.
type measuredRep struct {
	repResult
	mallocs uint64
	cpu     time.Duration
}

// rate is the repetition's items_per_s.
func (r measuredRep) rate() float64 {
	if r.paced != nil {
		return r.paced.serviceRate()
	}
	return float64(r.items) / r.wall.Seconds()
}

func measureRep(w workload, tr *tracer) measuredRep {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	t0 := time.Now()
	r := w.rep(tr)
	wall := time.Since(t0)
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	if r.wall == 0 {
		r.wall = wall
	}
	if r.paced != nil {
		cpu = r.paced.cpu
	}
	return measuredRep{repResult: r, mallocs: m1.Mallocs - m0.Mallocs, cpu: cpu}
}

// counterSnapshot is the runtime's counters at a repetition boundary.
type counterSnapshot struct {
	Rep            int    `json:"rep"`
	AtNs           int64  `json:"at_ns"`
	Spawns         uint64 `json:"spawns"`
	Steals         uint64 `json:"steals"`
	StolenTasks    uint64 `json:"stolen_tasks"`
	Parks          uint64 `json:"parks"`
	Blocks         uint64 `json:"blocks"`
	SegmentAllocs  uint64 `json:"segment_allocs"`
	PooledSegments int    `json:"pooled_segments"`
	ProducerBlocks uint64 `json:"producer_blocks"`
	ProducerWakes  uint64 `json:"producer_wakes"`
	ConsumerBlocks uint64 `json:"consumer_blocks"`
	ConsumerWakes  uint64 `json:"consumer_wakes"`
	HyperViews     uint64 `json:"hyper_views"`
	HyperMerges    uint64 `json:"hyper_merges"`
}

func snapshot(rt *swan.Runtime, tr *tracer, rep int) counterSnapshot {
	s := swan.Stats(rt)
	c := counterSnapshot{
		Rep: rep, AtNs: int64(time.Since(tr.t0)),
		Spawns: s.Spawns, Steals: s.Steals, StolenTasks: s.StolenTasks, Parks: s.Parks, Blocks: s.Blocks,
		SegmentAllocs: s.SegmentAllocs, PooledSegments: s.PooledSegments,
	}
	for _, q := range s.Queues {
		c.ProducerBlocks += q.ProducerBlocks
		c.ProducerWakes += q.ProducerWakes
		c.ConsumerBlocks += q.ConsumerBlocks
		c.ConsumerWakes += q.ConsumerWakes
	}
	for _, h := range s.Hyperobjects {
		c.HyperViews += h.Views
		c.HyperMerges += h.Merges
	}
	return c
}

// runTraced is the per-layer pass. It spends a sixth of the budget on
// untraced repetitions and a sixth on repetitions with spans, sampled
// call timing and queue metering on — the difference between the two is
// the tracing overhead — and counts the runtime's work per thousand
// items across the traced ones. The ladder then prices each layer alone.
// The application breakdown and the open-loop phases run at full size
// when their own workload is the one traced and as short probes
// otherwise, so that every run reports every per-layer metric.
func runTraced(w workload, name string, seed uint64, budget time.Duration, sz sizes, env environment, outDir string) result {
	res := result{Metrics: metricSet{}, Traced: true}
	m := res.Metrics
	paced, isPaced := w.(*shardPaced)
	if isPaced {
		budget /= 2 // the main phase; the .lo and .hi phases share the rest
	}
	w.setup(seed, budget)
	runtime.GC()
	tr := newTracer(1 << 18)
	var mem0 runtime.MemStats
	runtime.ReadMemStats(&mem0)

	// Closed loop: untraced repetitions, then traced ones. The open-loop
	// workload has one repetition, the traced main phase.
	var plain, traced []float64
	for start := time.Now(); !isPaced && (len(plain) < 2 || time.Since(start) < budget/6); {
		r := measureRep(w, nil)
		res.add(r.repResult)
		plain = append(plain, r.rate())
	}
	var mainPhase *pacedResult
	counters := []counterSnapshot{snapshot(w.runtime(), tr, 0)}
	items := 0
	for start := time.Now(); mainPhase == nil && (len(traced) < 2 || time.Since(start) < budget/6); {
		tr.rep.Add(1)
		r := measureRep(w, tr)
		res.add(r.repResult)
		items += r.items
		traced = append(traced, r.rate())
		counters = append(counters, snapshot(w.runtime(), tr, len(traced)))
		mainPhase = r.paced
	}
	c0, c1 := counters[0], counters[len(counters)-1]
	perK := func(before, after uint64) float64 { return float64(after-before) / float64(items) * 1000 }
	m.set("sched.spawns_per_kitem", "count", perK(c0.Spawns, c1.Spawns))
	m.set("sched.steals_per_kitem", "count", perK(c0.Steals, c1.Steals))
	m.set("sched.parks_per_kitem", "count", perK(c0.Parks, c1.Parks))
	m.set("sched.blocks_per_kitem", "count", perK(c0.Blocks, c1.Blocks))
	m.set("sched.stolen_per_steal", "count", float64(c1.StolenTasks-c0.StolenTasks)/max(1, float64(c1.Steals-c0.Steals)))
	m.set("flow.prod_blocks_per_kitem", "count", perK(c0.ProducerBlocks, c1.ProducerBlocks))
	m.set("flow.prod_wakes_per_kitem", "count", perK(c0.ProducerWakes, c1.ProducerWakes))
	m.set("queue.cons_blocks_per_kitem", "count", perK(c0.ConsumerBlocks, c1.ConsumerBlocks))
	m.set("queue.cons_wakes_per_kitem", "count", perK(c0.ConsumerWakes, c1.ConsumerWakes))
	m.set("segpool.allocs_per_kitem", "count", perK(c0.SegmentAllocs, c1.SegmentAllocs))
	m.set("segpool.pooled_end", "count", float64(c1.PooledSegments))
	m.set("hyper.views_per_rep", "count", float64(c1.HyperViews-c0.HyperViews)/float64(len(traced)))
	m.set("hyper.merges_per_rep", "count", float64(c1.HyperMerges-c0.HyperMerges)/float64(len(traced)))
	m.set("queue.push_wait_frac", "ratio", tr.pushes.waitFrac())
	m.set("queue.pop_wait_frac", "ratio", tr.pops.waitFrac())
	overhead := 0.0
	if len(plain) > 0 {
		overhead = 1 - median(traced)/median(plain)
	}
	m.set("trace_overhead_frac", "ratio", overhead)
	var mem1 runtime.MemStats
	runtime.ReadMemStats(&mem1)
	m.set("gc_cycles", "count", float64(mem1.NumGC-mem0.NumGC))
	m.set("heap_peak_mb", "MB", float64(mem1.HeapSys)/(1<<20))

	ladder(m, env.GoMaxProcs, sz.ladderScale)

	if app, ok := w.(*dedupApp); ok {
		res.add(dedupLadder(m, tr, app, 2))
	} else {
		probe := &dedupApp{sz: sz, workers: env.GoMaxProcs}
		probe.sz.dedupBytes /= 8
		probe.setup(seed, 0)
		res.add(dedupLadder(m, tr, probe, 3))
	}

	side := budget / 3
	if !isPaced {
		paced = &shardPaced{sz: sz, workers: env.GoMaxProcs}
		paced.setup(seed, sz.probe)
		tr.rep.Add(1)
		mainPhase = paced.phase(tr, sz.pacedRate, sz.probe)
		res.add(mainPhase.repResult)
		side = sz.probe / 2
	}
	lo := paced.phase(tr, sz.pacedLoRate, side)
	hi := paced.phase(tr, sz.pacedHiRate, side)
	res.add(lo.repResult)
	res.add(hi.repResult)
	pacedLadder(m, mainPhase, lo, hi)
	res.Notes = append(res.Notes, mainPhase.describe("main"), lo.describe("lo"), hi.describe("hi"))

	res.Correct = res.Failed == 0
	file := traceFile{Env: env, Workload: name, Dropped: tr.dropped.Load(), Summary: summarize(tr.recorded()), Counters: counters, Spans: tr.recorded()}
	if err := writeJSON(filepath.Join(outDir, "trace-"+name+".json"), file); err != nil {
		fatal("%v", err)
	}
	return res
}
