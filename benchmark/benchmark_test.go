package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/swan"
)

// tinySizes runs every workload's code in a fraction of a second.
var tinySizes = sizes{
	dedupBytes:   512 << 10,
	elemItems:    20_000,
	faninItems:   20_000,
	shardSamples: 16_000,
	pacedRate:    50_000,
	pacedLoRate:  20_000,
	pacedHiRate:  100_000,
	probe:        60 * time.Millisecond,
	ladderScale:  2000,
}

func TestGeneratorNeverReleasesEarly(t *testing.T) {
	g := newBurstGen(40_000, 60*time.Millisecond, 3)
	rt := swan.New(2)
	early := 0
	rt.Run(func(f *swan.Frame) {
		f.Spawn(func(c *swan.Frame) {
			g.start = time.Now()
			for i := 0; i < g.total; i++ {
				stamp := g.arrive(c, i)
				if int64(time.Since(g.start)) < stamp {
					early++
				}
			}
		})
		f.Sync()
	})
	if early != 0 {
		t.Errorf("%d of %d items were stamped before their due time", early, g.total)
	}
	if g.late.n != uint64(g.bursts) {
		t.Errorf("lateness recorded for %d bursts, want %d", g.late.n, g.bursts)
	}
	if g.late.max <= 0 {
		t.Errorf("generator reports no lateness at all (max %d ns): it cannot be measuring", g.late.max)
	}
}

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    uint64
		want float64
	}{{0, 0}, {19, 0}, {20, 50}, {40, 75}, {999, 95}, {1000, 99}, {9_999, 99}, {10_000, 99.9}, {8_000_000, 99.999}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, med, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || med != 4 || q3 != 12 {
		t.Errorf("quartiles = %g %g %g, want 1.5 4 12", q1, med, q3)
	}
}

func TestLatHistInterpolates(t *testing.T) {
	h := newLatHist()
	for i := 0; i < 1000; i++ {
		h.record(int64(i) * 100) // 0 .. 99.9 µs, ten per bucket
	}
	if got := h.percentileUs(50); math.Abs(got-50) > 0.11 {
		t.Errorf("p50 = %g µs, want 50", got)
	}
	if got := h.percentileUs(99); math.Abs(got-99) > 0.11 {
		t.Errorf("p99 = %g µs, want 99", got)
	}
	h.record(6_000_000)
	if got := h.lateFrac(); got != 1.0/1001 {
		t.Errorf("lateFrac = %g, want 1/1001", got)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "run", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},  // overlaps a: tasks on two workers
		{Name: "c", Start: 90, End: 120, Parent: 0}, // outlives its parent: clipped
		{Name: "a.call", Start: 12, End: 15, Parent: 1},
	}
	want := []int64{50, 17, 30, 30, 3}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got, want[i])
		}
	}
	if s := summarize(spans)["run"]; s.Count != 1 || s.TotalNs != 100 || s.SelfNs != 50 {
		t.Errorf("summary of run = %+v", s)
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name   string
		a, b   []float64
		better string
		want   string
	}{
		{"same", steady, steady, "lower", unchanged},
		{"slower", steady, []float64{120, 121, 119, 120, 120}, "lower", regressed},
		{"faster", steady, []float64{80, 81, 79, 80, 80}, "lower", improved},
		{"more throughput", steady, []float64{120, 121, 119, 120, 120}, "higher", improved},
		{"less throughput", steady, []float64{80, 81, 79, 80, 80}, "higher", regressed},
		{"within bound", steady, []float64{105, 106, 104, 105, 105}, "lower", unchanged},
		{"too noisy to tell", steady, []float64{70, 100, 130, 85, 115}, "lower", unresolved},
	} {
		if got := verdict(c.a, c.b, c.better, 0.10); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestContract checks BENCHMARK.json against the limits the acceptance
// driver enforces before it runs anything.
func TestContract(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
		delete(keys, k)
	}
	for k := range keys {
		t.Errorf("BENCHMARK.json has a key the contract does not know: %q", k)
	}
	spec, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	var got []string
	for _, w := range spec.Workloads {
		name(w.Name)
		got = append(got, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if strings.Join(got, " ") != strings.Join(workloadNames, " ") {
		t.Errorf("workloads %v, the benchmark runs %v", got, workloadNames)
	}
	setup := false
	for _, m := range spec.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end metric %s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound must be in (0, 0.25]", m.Name)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no end-to-end metric setup_s in s, lower is better")
	}
	for _, m := range spec.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound != nil {
			t.Errorf("per-layer metric %s has a bound", m.Name)
		}
	}
}

// sameMetrics checks that a run printed exactly the metrics BENCHMARK.json
// lists, each in the listed unit and as a finite number.
func sameMetrics(t *testing.T, what string, got metricSet, want []metricSpec) {
	t.Helper()
	for _, m := range want {
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s is missing", what, m.Name)
		case g.Unit != m.Unit:
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", what, m.Name, g.Unit, m.Unit)
		case math.IsNaN(g.Value) || math.IsInf(g.Value, 0):
			t.Errorf("%s: metric %s = %g", what, m.Name, g.Value)
		}
	}
	if len(got) != len(want) {
		for n := range got {
			found := false
			for _, m := range want {
				found = found || m.Name == n
			}
			if !found {
				t.Errorf("%s: metric %s is not in BENCHMARK.json", what, n)
			}
		}
	}
}

// TestSmoke runs all five workloads end to end at tiny size, with the
// correctness checks on, and compares what they print with the contract.
func TestSmoke(t *testing.T) {
	spec, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range workloadNames {
		w, err := newWorkload(n, tinySizes, 2)
		if err != nil {
			t.Fatal(err)
		}
		res := runEndToEnd(w, 11, 60*time.Millisecond)
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", n, res.Correct, res.Attempted, res.Failed)
		}
		sameMetrics(t, n, res.Metrics, spec.EndToEnd)
		for _, m := range spec.EndToEnd {
			// CPU time is excepted: where the kernel accounts it by the
			// tick, repetitions this short can read as none.
			if v := res.Metrics[m.Name].Value; v < 0 || (v == 0 && m.Name != "cpu_us_per_item") {
				t.Errorf("%s: end-to-end metric %s = %g, must be positive", n, m.Name, v)
			}
		}
	}
}

// TestSmokeTraced runs the traced pass of one closed-loop workload and of
// the open-loop one — between them they take every branch of the pass —
// and checks the per-layer metric set and the trace file.
func TestSmokeTraced(t *testing.T) {
	spec, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	env, err := probeEnvironment()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, n := range []string{"fanin_tree", "shard_paced"} {
		w, err := newWorkload(n, tinySizes, 2)
		if err != nil {
			t.Fatal(err)
		}
		res := runTraced(w, n, 5, 120*time.Millisecond, tinySizes, env, dir)
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", n, res.Correct, res.Attempted, res.Failed)
		}
		sameMetrics(t, n, res.Metrics, spec.PerLayer)
		raw, err := os.ReadFile(filepath.Join(dir, "trace-"+n+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var tf traceFile
		if err := json.Unmarshal(raw, &tf); err != nil {
			t.Fatalf("%s: trace file: %v", n, err)
		}
		if len(tf.Spans) == 0 || len(tf.Counters) < 2 || tf.Env.GoMaxProcs == 0 {
			t.Errorf("%s: trace file has %d spans, %d counter snapshots, env %+v", n, len(tf.Spans), len(tf.Counters), tf.Env)
		}
	}
}

// TestCorruptedStreamIsCounted damages one element on its way into
// elem_stream: the run must report it in ops_failed, not average it away.
func TestCorruptedStreamIsCounted(t *testing.T) {
	w := &elemStream{sz: tinySizes, workers: 2}
	w.setup(1, 0)
	if r := w.rep(nil); r.failed != 0 {
		t.Fatalf("clean stream reports %d failed items", r.failed)
	}
	w.corrupt = 1234
	if r := w.rep(nil); r.failed != 1 || r.items != tinySizes.elemItems {
		t.Errorf("corrupted stream: failed = %d of %d, want 1", r.failed, r.items)
	}

	d := &dedupApp{sz: tinySizes, workers: 2}
	d.setup(1, 0)
	d.ref.Stream = append([]byte(nil), d.ref.Stream...)
	d.ref.Stream[len(d.ref.Stream)/2] ^= 0xff
	if r := d.rep(nil); r.failed != r.items {
		t.Errorf("dedup stream differing from the reference: failed = %d, want all %d items", r.failed, r.items)
	}
}

func TestResultLineHasExactlyTheContractKeys(t *testing.T) {
	line, err := json.Marshal(resultLine(result{Correct: true, Attempted: 3, Metrics: metricSet{"x": {1.5, "s"}}, Workload: "w", Reps: 2}))
	if err != nil {
		t.Fatal(err)
	}
	want := `{"correct":true,"attempted":3,"failed":0,"metrics":{"x":{"value":1.5,"unit":"s"}}}`
	if !bytes.Equal(line, []byte(want)) {
		t.Errorf("result line = %s\nwant          %s", line, want)
	}
}
