package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/swan"
)

const (
	burstPeriod = 5 * time.Millisecond
	// Go timers on this kernel wake up to ~1.1 ms after the time asked
	// for, so the generator sleeps to this far before a burst is due and
	// spins the rest of the way.
	sleepMargin = 1200 * time.Microsecond
)

// burstGen is the open-loop arrival schedule of shard_paced: burst b, of
// perBurst items, is due at (b+1)*burstPeriod after the start. It is the
// producer task's Arrive hook, so no thread besides the runtime's workers
// generates load. An item is never released before its burst is due —
// internal/bench.MeasureLatency releases up to 1 ms early and clips the
// negative latencies to 0, which is why its p50 prints as 0s — and the
// generator records how late each release ran.
type burstGen struct {
	perBurst int
	bursts   int
	total    int

	start  time.Time
	next   int   // index of the first item of the next burst
	burst  int   // bursts released so far
	stamp  int64 // due time of the current burst, ns after start
	late   *latHist
	spinNs int64 // time spent spinning towards due times: generator CPU, not the pipeline's
}

// newBurstGen plans d of load at rate items/s. The seed shifts the burst
// size by up to 1 % so that runs do not all see the same stream length.
func newBurstGen(rate float64, d time.Duration, seed uint64) *burstGen {
	per := int(rate * burstPeriod.Seconds())
	per += int(seed % uint64(per/100+1))
	per = (per + shardSensors - 1) / shardSensors * shardSensors
	bursts := int(d / burstPeriod)
	if bursts < 1 {
		bursts = 1
	}
	return &burstGen{perBurst: per, bursts: bursts, total: per * bursts, late: newLatHist()}
}

// arrive is called before item i is pushed. On the first item of a burst
// it waits for the burst's due time: asleep inside Frame.Block, so that
// the worker slot is free, until sleepMargin before, then yielding in a
// loop. It returns the due time as the item's stamp.
func (g *burstGen) arrive(c *swan.Frame, i int) int64 {
	if i != g.next {
		return g.stamp
	}
	g.burst++
	g.next += g.perBurst
	due := time.Duration(g.burst) * burstPeriod
	if d := due - sleepMargin - time.Since(g.start); d > 0 {
		c.Block(func() { time.Sleep(d) })
	}
	spin0 := time.Since(g.start)
	now := spin0
	for now < due {
		runtime.Gosched()
		now = time.Since(g.start)
	}
	g.spinNs += int64(now - spin0)
	g.late.record(int64(now - due))
	g.stamp = int64(due)
	return g.stamp
}

// pacedResult is what one open-loop phase measured.
type pacedResult struct {
	repResult
	count  int64
	digest string
	lat    *latHist // egress time − due time, every item
	first  *latHist // the same for the first item of each burst: the wake chain across the fan-out
	done   *latHist // the same for the last item of each burst: how long the burst took to serve
	late   *latHist // generator lateness per burst
	burst  int      // items per burst
	drain  time.Duration
	cpu    time.Duration // process CPU over the phase, generator spin excluded
}

// serviceRate is the rate at which the pipeline serves a burst, starting
// parked: the burst's size over the median time from its due time to the
// egress of its last item. Over wall time an open-loop phase completes
// exactly the rate it is offered, so this is the phase's items_per_s.
func (p *pacedResult) serviceRate() float64 {
	return float64(p.burst) / (p.done.percentileUs(50) / 1e6)
}

// describe prints the phase's latency distribution: the median and the
// highest percentile that still has ten samples beyond it.
func (p *pacedResult) describe(phase string) string {
	top := highestPercentile(p.lat.n)
	return fmt.Sprintf("%s phase: %d items in bursts of %d, latency p50 %.1f us, p%g %.1f us, max %.1f us; generator late p50 %.2f us, max %.2f us",
		phase, p.lat.n, p.burst, p.lat.percentileUs(50), top, p.lat.percentileUs(top), float64(p.lat.max)/1e3,
		p.late.percentileUs(50), float64(p.late.max)/1e3)
}

// runPaced drives one phase: run is handed the two hooks and executes
// the pipeline with them, returning the item count and result digest.
func runPaced(tr *tracer, g *burstGen, run func(arrive func(*swan.Frame, int) int64, complete func(int64)) (int64, string)) *pacedResult {
	p := &pacedResult{lat: newLatHist(), first: newLatHist(), done: newLatHist(), late: g.late, burst: g.perBurst}
	p.items = g.total
	id := tr.begin("shard_paced.phase", -1)

	// The egress hook runs in the one consumer task of the pipeline's
	// last queue. A change of stamp is a burst boundary.
	var stamp, firstEgress, lastEgress int64 = -1, 0, 0
	endBurst := func() {
		if stamp < 0 {
			return
		}
		p.done.record(lastEgress - stamp)
		tr.add("shard_paced.burst_egress", id, g.start.Add(time.Duration(firstEgress)), g.start.Add(time.Duration(lastEgress)))
	}
	complete := func(due int64) {
		now := int64(time.Since(g.start))
		p.lat.record(now - due)
		if due != stamp {
			endBurst()
			p.first.record(now - due)
			stamp, firstEgress = due, now
		}
		lastEgress = now
	}
	arrive := g.arrive
	if tr != nil {
		arrive = func(c *swan.Frame, i int) int64 {
			if i != g.next {
				return g.stamp
			}
			wait := tr.begin("shard_paced.gen_wait", id)
			defer tr.end(wait)
			return g.arrive(c, i)
		}
	}

	cpu0 := cpuTime()
	g.start = time.Now()
	p.count, p.digest = run(arrive, complete)
	p.wall = time.Since(g.start)
	p.cpu = cpuTime() - cpu0 - time.Duration(g.spinNs)
	endBurst()
	tr.end(id)
	p.drain = time.Duration(lastEgress - stamp)
	return p
}
