package bench

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/hist"
	"repro/internal/workloads/dedup"
	"repro/internal/workloads/streamstats"
	"repro/swan"
)

// LatencyConfig shapes one open-loop latency run: a fixed-rate arrival
// generator feeds a sharded pipeline and every element's
// ingress-to-completion latency is recorded at the egress.
type LatencyConfig struct {
	Workload string  // "streamstats" or "dedup"
	Shards   int     // shard fan-out (default 1)
	Workers  int     // runtime worker count (default NumCPU)
	Bound    int     // per-shard queue bound (default swan.DefaultShardBound)
	Rate     float64 // offered load, elements/second; <= 0 means closed-loop (flat out)
	Items    int     // elements to offer (samples, or coarse chunks for dedup)
}

// LatencyReport is one run's result: the offered/completed element
// counts, time to first result, and completion-latency percentiles from
// the HDR-style histogram (all latencies in nanoseconds).
//
// The run is open-loop: each element's stamp is the due time of its
// arrival burst, whenever the generator got to release it, so when the
// pipeline falls behind the queueing delay counts against it (no
// coordinated omission).
type LatencyReport struct {
	Workload        string
	Shards, Workers int
	Rate            float64
	Offered         uint64
	Completed       uint64
	Negative        uint64 // elements that completed before their stamp: a generator that released early (want 0)
	WallSeconds     float64
	TTFR            int64 // time to first result, ns from run start
	P50, P99, P999  int64
	Max             int64
	Mean            float64
}

const (
	// burstPeriod spaces the arrival bursts of a paced run.
	burstPeriod = 5 * time.Millisecond
	// Go timers wake up to ~1.1 ms after the time asked for, so the
	// generator sleeps to this far before a burst is due and yields the
	// rest of the way.
	sleepMargin = 1200 * time.Microsecond
)

// MeasureLatency runs one open-loop latency experiment. The arrival
// generator runs inside the producer's Block regions (pacing sleeps
// never hold a worker slot); the egress consumer stamps completions
// into a histogram with no per-element allocation.
func MeasureLatency(cfg LatencyConfig) LatencyReport {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.Workers < 1 {
		cfg.Workers = runtime.NumCPU()
	}
	if cfg.Items < 1 {
		cfg.Items = 1
	}
	rt := newRuntime(cfg.Workers)

	var h hist.H
	var start time.Time
	var ttfr int64 = -1
	var offered, negative uint64

	// arrive is the open-loop arrival schedule: elements are due in bursts,
	// each at the end of the burstPeriod its intended arrival time i/rate
	// falls in, because OS timers cannot pace gaps of a few microseconds.
	// The first element of a burst waits for the due time — asleep inside
	// a Block region, so that pacing never holds a worker slot, until
	// sleepMargin before it, then yielding — and the due time is the stamp
	// of the whole burst. An element is therefore never released before
	// its stamp, and when the generator itself runs late the stamp stays
	// the intended time, so queueing delay under overload is charged to
	// the element (open-loop discipline).
	var stamp int64
	arrive := func(c *swan.Frame, i int) int64 {
		offered++
		if cfg.Rate <= 0 {
			return time.Since(start).Nanoseconds()
		}
		period := burstPeriod.Nanoseconds()
		due := (int64(float64(i)/cfg.Rate*1e9)/period + 1) * period
		if due == stamp {
			return stamp
		}
		if d := time.Duration(due) - sleepMargin - time.Since(start); d > 0 {
			c.Block(func() { time.Sleep(d) })
		}
		for time.Since(start) < time.Duration(due) {
			runtime.Gosched()
		}
		stamp = due
		return stamp
	}
	complete := func(stamp int64) {
		now := time.Since(start).Nanoseconds()
		if ttfr < 0 {
			ttfr = now
		}
		if now < stamp {
			negative++ // hist.Record would clip it to 0
		}
		h.Record(now - stamp)
	}

	var data []byte
	if cfg.Workload == "dedup" {
		// Generated before the clock starts: the stamps are relative to
		// start, and building the input is not the pipeline's latency.
		data = dedup.GenerateInput(42, cfg.Items*16*1024, 0.5)
	}
	start = time.Now()
	switch cfg.Workload {
	case "streamstats":
		scfg := streamstats.ShardedConfig{
			Config:   streamstats.Config{Samples: cfg.Items, Sensors: 16, SegCap: 256},
			Shards:   cfg.Shards,
			Bound:    cfg.Bound,
			Arrive:   arrive,
			Complete: complete,
		}
		streamstats.RunSharded(rt, scfg)
	case "dedup":
		// Items coarse chunks at ~16 KiB each; light stage costs keep the
		// run latency-bound rather than compute-bound.
		o := dedup.Options{CoarseAvg: 16 * 1024, FineAvg: 2 * 1024, MaxFactor: 4, DedupRounds: 1, OutputRounds: 1}
		dedup.RunSharded(rt, data, o, dedup.ShardedConfig{
			Shards:   cfg.Shards,
			Bound:    cfg.Bound,
			SegCap:   256,
			Arrive:   arrive,
			Complete: complete,
		})
	default:
		panic(fmt.Sprintf("bench: unknown latency workload %q", cfg.Workload))
	}
	wall := time.Since(start).Seconds()

	return LatencyReport{
		Workload:    cfg.Workload,
		Shards:      cfg.Shards,
		Workers:     cfg.Workers,
		Rate:        cfg.Rate,
		Offered:     offered,
		Completed:   h.Count(),
		Negative:    negative,
		WallSeconds: wall,
		TTFR:        ttfr,
		P50:         h.Quantile(0.50),
		P99:         h.Quantile(0.99),
		P999:        h.Quantile(0.999),
		Max:         h.Max(),
		Mean:        h.Mean(),
	}
}

// Latency runs the open-loop latency experiment grid — both sharded
// workloads at shards 1 and 4, each at a fixed offered rate below the
// single-shard capacity — and renders the percentile table.
func Latency(c Config) *Table {
	var reports []LatencyReport
	for _, shards := range []int{1, 4} {
		reports = append(reports, MeasureLatency(LatencyConfig{
			Workload: "streamstats", Shards: shards, Workers: c.MaxCores,
			Items: 50_000 * c.Scale, Rate: 200_000,
		}))
	}
	for _, shards := range []int{1, 4} {
		reports = append(reports, MeasureLatency(LatencyConfig{
			Workload: "dedup", Shards: shards, Workers: c.MaxCores,
			Items: 256 * c.Scale, Rate: 500,
		}))
	}
	return LatencyTable(
		"Open-loop latency under fixed-rate load (sharded pipelines)",
		reports,
		"Latency is completion time minus the due time of the element's arrival burst (bursts every 5 ms; open-loop: queueing under overload is charged to the element, no coordinated omission). Early counts elements that completed before their stamp and must be 0. Percentiles from an HDR-style log-linear histogram, <= 1/32 relative error.",
	)
}

// LatencyTable renders latency reports as a table: one row per run.
func LatencyTable(title string, reports []LatencyReport, notes ...string) *Table {
	t := &Table{
		Title:  title,
		Header: []string{"Workload", "Shards", "Workers", "Rate/s", "Completed", "Early", "TTFR", "p50", "p99", "p999", "max"},
		Notes:  notes,
	}
	ns := func(v int64) string { return time.Duration(v).Round(time.Microsecond).String() }
	for _, r := range reports {
		rate := "max"
		if r.Rate > 0 {
			rate = fmt.Sprintf("%.0f", r.Rate)
		}
		t.Rows = append(t.Rows, []string{
			r.Workload,
			fmt.Sprintf("%d", r.Shards),
			fmt.Sprintf("%d", r.Workers),
			rate,
			fmt.Sprintf("%d", r.Completed),
			fmt.Sprintf("%d", r.Negative),
			ns(r.TTFR), ns(r.P50), ns(r.P99), ns(r.P999), ns(r.Max),
		})
	}
	return t
}
