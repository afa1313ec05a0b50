package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/rng"
	"repro/internal/workloads/dedup"
	"repro/internal/workloads/streamstats"
	"repro/swan"
)

// sizes fixes how much work one repetition of each workload does. The
// full sizes are what BENCHMARK.json's baseline was measured at; the
// tests run the same code at tiny sizes.
type sizes struct {
	dedupBytes   int     // dedup_app input size
	elemItems    int     // elem_stream elements per rep
	faninItems   int     // fanin_tree elements per rep (approximate: whole leaves)
	shardSamples int     // shard_stream samples per rep
	pacedRate    float64 // shard_paced main-phase rate, items/s
	pacedLoRate  float64 // .lo phase rate
	pacedHiRate  float64 // .hi phase rate

	// The traced pass of a workload other than shard_paced runs the
	// open-loop pipeline as a probe with a main phase this long, and the
	// ladder divides its operation counts by ladderScale.
	probe       time.Duration
	ladderScale int
}

var fullSizes = sizes{
	dedupBytes:   16 << 20,
	elemItems:    1_000_000,
	faninItems:   1 << 19,
	shardSamples: 500_000,
	pacedRate:    500_000,
	pacedLoRate:  100_000,
	pacedHiRate:  1_500_000,
	probe:        2 * time.Second,
	ladderScale:  1,
}

const (
	shardSensors = 16
	shardShards  = 2
	elemSegCap   = 256
	faninSegCap  = 64
	dedupSegCap  = 64
)

// repResult is what one repetition reports: how many items it attempted,
// how many of them were missing, out of order or different from the
// serial elision, and — for the open-loop workload, whose duration the
// schedule fixes — its own wall time and latency figures.
type repResult struct {
	items  int
	failed int
	wall   time.Duration // 0: the caller's stopwatch around rep is the rep's time
	paced  *pacedResult  // shard_paced only
}

// workload is one of the five benchmark workloads. setup generates the
// inputs from the seed, computes the serial-elision reference, builds the
// runtime and runs one discarded warm-up repetition; rep runs one checked
// repetition on that warmed runtime. budget is the measuring time of the
// run; only the open-loop workload, whose repetition is one timed phase,
// uses it.
type workload interface {
	setup(seed uint64, budget time.Duration)
	rep(tr *tracer) repResult
	runtime() *swan.Runtime
}

var workloadNames = []string{"dedup_app", "elem_stream", "fanin_tree", "shard_stream", "shard_paced"}

func newWorkload(name string, sz sizes, workers int) (workload, error) {
	switch name {
	case "dedup_app":
		return &dedupApp{sz: sz, workers: workers}, nil
	case "elem_stream":
		return &elemStream{sz: sz, workers: workers}, nil
	case "fanin_tree":
		return &faninTree{sz: sz, workers: workers}, nil
	case "shard_stream":
		return &shardStream{sz: sz, workers: workers}, nil
	case "shard_paced":
		return &shardPaced{sz: sz, workers: workers}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// --- dedup_app -------------------------------------------------------------

// dedupApp is the paper's headline application (Fig 11). An item is one
// fine chunk written by the Output stage.
type dedupApp struct {
	sz      sizes
	workers int
	rt      *swan.Runtime
	data    []byte
	opts    dedup.Options
	ref     dedup.Result
	items   int
}

func (w *dedupApp) runtime() *swan.Runtime { return w.rt }

// dedupInput builds the input stream for a seed. How much of a stream
// deduplicates and how well its text compresses vary by a fifth from
// one GenerateInput seed to the next, which would bury any change to
// the runtime; so the text is generated once, from a fixed seed, and the
// run's seed shuffles its 8 KiB blocks. Every seed then chunks, hashes
// and compresses the same blocks, in a different order.
func dedupInput(seed uint64, size int) []byte {
	const block = 8 << 10
	base := dedup.GenerateInput(42, size, 0.5)
	out := make([]byte, 0, len(base))
	for _, b := range rng.New(seed).Perm((len(base) + block - 1) / block) {
		out = append(out, base[b*block:min((b+1)*block, len(base))]...)
	}
	return out
}

func (w *dedupApp) setup(seed uint64, _ time.Duration) {
	w.data = dedupInput(seed, w.sz.dedupBytes)
	w.opts = dedup.DefaultOptions()
	w.items = 0
	for _, coarse := range dedup.Fragment(w.data, w.opts) {
		w.items += len(dedup.Refine(coarse, w.opts))
	}
	w.ref = dedup.RunSerial(w.data, w.opts)
	w.rt = swan.New(w.workers)
	w.rep(nil)
}

func (w *dedupApp) check(res dedup.Result) repResult {
	r := repResult{items: w.items}
	if res.Checksum != w.ref.Checksum || !bytes.Equal(res.Stream, w.ref.Stream) {
		r.failed = w.items
	}
	return r
}

func (w *dedupApp) rep(tr *tracer) repResult {
	id := tr.begin("dedup.RunHyperqueue", -1)
	res := dedup.RunHyperqueue(w.rt, w.data, w.opts, dedupSegCap)
	tr.end(id)
	return w.check(res)
}

// --- elem_stream -----------------------------------------------------------

// elemStream pushes a seeded arithmetic sequence through two bounded
// hops with next to no work per element, so the queue, handle and flow
// code is all there is to measure.
type elemStream struct {
	sz      sizes
	workers int
	rt      *swan.Runtime
	base    int
	stride  int
	corrupt int // test hook: index of one element the producer damages, -1 for none
}

func (w *elemStream) runtime() *swan.Runtime { return w.rt }

func (w *elemStream) setup(seed uint64, _ time.Duration) {
	r := rng.New(seed)
	w.base = r.Intn(1 << 30)
	w.stride = 1 + 2*r.Intn(1<<10)
	w.corrupt = -1
	w.rt = swan.New(w.workers)
	w.rep(nil)
}

func (w *elemStream) rep(tr *tracer) repResult {
	n, base, stride, corrupt := w.sz.elemItems, w.base, w.stride, w.corrupt
	got, bad := 0, 0
	run := tr.begin("elem_stream.Run", -1)
	w.rt.Run(func(f *swan.Frame) {
		q1 := swan.NewQueueWithCapacity[int](f, elemSegCap, swan.Bounded(4096), swan.Named("elem.q1"))
		q2 := swan.NewQueueWithCapacity[int](f, elemSegCap, swan.Bounded(1024), swan.Named("elem.q2"))
		swan.Produce(f, q1, func(c *swan.Frame, push func(int)) {
			id := tr.begin("elem_stream.producer", run)
			defer tr.end(id)
			for i := 0; i < n; i++ {
				v := base + i*stride
				if i == corrupt {
					v ^= 1 << 40
				}
				if tr != nil && i&sampleMask == 0 {
					t0 := time.Now()
					push(v)
					tr.samplePush(id, t0, time.Now())
					continue
				}
				push(v)
			}
		})
		swan.TransformSerial(f, q1, q2, func(v int, push func(int)) { push(v + 1) })
		want := base + 1
		check := func(v int) {
			if v != want {
				bad++
			}
			want += stride
			got++
		}
		drain := check
		if tr != nil {
			// The time between two calls of the drain function is the
			// consumer's Empty and Pop; every 1024th one is timed.
			id := tr.begin("elem_stream.consumer", run)
			var returned time.Time
			drain = func(v int) {
				if got&sampleMask == 1 {
					tr.samplePop(id, returned, time.Now())
				}
				check(v)
				if got&sampleMask == 1 {
					tr.end(id) // the consumer span ends at the last sampled element
					returned = time.Now()
				}
			}
		}
		swan.Drain(f, q2, drain)
		f.Sync()
	})
	tr.end(run)
	if got < n {
		bad += n - got
	}
	return repResult{items: n, failed: bad}
}

// --- fanin_tree ------------------------------------------------------------

// faninTree is the paper's Figure 2: a recursively parallel producer
// whose leaves push short runs into one queue while a single consumer
// pops them in serial order.
type faninTree struct {
	sz      sizes
	workers int
	rt      *swan.Runtime
	bounds  []int32 // leaf i pushes elements bounds[i]..bounds[i+1]-1
	base    int
}

func (w *faninTree) runtime() *swan.Runtime { return w.rt }

func (w *faninTree) setup(seed uint64, _ time.Duration) {
	r := rng.New(seed)
	w.base = r.Intn(1 << 30)
	w.bounds = w.bounds[:0]
	w.bounds = append(w.bounds, 0)
	for at := 0; at < w.sz.faninItems; {
		at += 8 + r.Intn(17)
		w.bounds = append(w.bounds, int32(at))
	}
	w.rt = swan.New(w.workers)
	w.rep(nil)
}

func (w *faninTree) rep(tr *tracer) repResult {
	bounds, base := w.bounds, w.base
	n := int(bounds[len(bounds)-1])
	got, bad := 0, 0
	run := tr.begin("fanin_tree.Run", -1)
	w.rt.Run(func(f *swan.Frame) {
		var opts []swan.QueueOption
		if tr != nil {
			opts = append(opts, swan.Named("fanin.q"))
		}
		q := swan.NewQueueWithCapacity[int](f, faninSegCap, opts...)
		var produce func(c *swan.Frame, lo, hi int)
		produce = func(c *swan.Frame, lo, hi int) {
			if hi-lo == 1 {
				pw := q.BindPush(c)
				for i := int(bounds[lo]); i < int(bounds[hi]); i++ {
					pw.Push(base + i)
				}
				return
			}
			mid := (lo + hi) / 2
			c.Spawn(func(g *swan.Frame) { produce(g, lo, mid) }, swan.Push(q))
			c.Spawn(func(g *swan.Frame) { produce(g, mid, hi) }, swan.Push(q))
		}
		f.Spawn(func(c *swan.Frame) {
			id := tr.begin("fanin_tree.producer", run)
			produce(c, 0, len(bounds)-1)
			c.Sync() // the task would sync on return anyway; here the span covers the whole tree
			tr.end(id)
		}, swan.Push(q))
		f.Spawn(func(c *swan.Frame) {
			id := tr.begin("fanin_tree.consumer", run)
			defer tr.end(id)
			pp := q.BindPop(c)
			for {
				sampled := tr != nil && got&sampleMask == 0
				var t0 time.Time
				if sampled {
					t0 = time.Now()
				}
				if pp.Empty() {
					return
				}
				v := pp.Pop()
				if sampled {
					tr.samplePop(id, t0, time.Now())
				}
				if v != base+got {
					bad++
				}
				got++
			}
		}, swan.Pop(q))
		f.Sync()
	})
	tr.end(run)
	if got < n {
		bad += n - got
	}
	return repResult{items: n, failed: bad}
}

// --- shard_stream ----------------------------------------------------------

// shardStream runs the sensor-statistics pipeline through the Sharded
// fan-out flat out. streamstats draws its sample values from fixed
// per-sensor generators, so the seed varies the stream's length.
type shardStream struct {
	sz      sizes
	workers int
	rt      *swan.Runtime
	cfg     streamstats.ShardedConfig
	digest  string
	items   int
}

func (w *shardStream) runtime() *swan.Runtime { return w.rt }

func shardConfig(samples int) streamstats.ShardedConfig {
	return streamstats.ShardedConfig{
		Config: streamstats.Config{Samples: samples, Sensors: shardSensors, SegCap: elemSegCap},
		Shards: shardShards,
	}
}

func (w *shardStream) setup(seed uint64, _ time.Duration) {
	// Up to 1 % more than the nominal length, in whole rounds of sensors.
	extra := rng.New(seed).Intn(w.sz.shardSamples/100/shardSensors+1) * shardSensors
	w.cfg = shardConfig(w.sz.shardSamples/shardSensors*shardSensors + extra)
	w.items = w.cfg.Samples
	w.digest = streamstats.RunShardedSerial(w.cfg).Digest()
	w.rt = swan.New(w.workers)
	w.rep(nil)
}

func (w *shardStream) rep(tr *tracer) repResult {
	id := tr.begin("streamstats.RunSharded", -1)
	res := streamstats.RunSharded(w.rt, w.cfg)
	tr.end(id)
	r := repResult{items: w.items}
	if res.Count != int64(w.items) || res.Digest() != w.digest {
		r.failed = w.items
	}
	return r
}

// --- shard_paced -----------------------------------------------------------

// shardPaced is the same pipeline under an open-loop schedule: bursts
// every 5 ms at a fixed rate, so the consumers park between bursts and
// what is measured is wake-up latency and CPU per item, not throughput.
// A repetition is the main phase of one run.
type shardPaced struct {
	sz      sizes
	workers int
	rt      *swan.Runtime
	seed    uint64
	main    time.Duration
	digests map[int]string // reference digest by stream length
}

func (w *shardPaced) runtime() *swan.Runtime { return w.rt }

func (w *shardPaced) setup(seed uint64, budget time.Duration) {
	w.seed = seed
	w.main = budget
	w.digests = make(map[int]string)
	w.rt = swan.New(w.workers)
	// The warm-up is a short phase at the main rate; the main phase's
	// reference is computed here so that it is part of set-up time.
	w.phase(nil, w.sz.pacedRate, 200*time.Millisecond)
	w.reference(newBurstGen(w.sz.pacedRate, w.main, seed).total)
}

func (w *shardPaced) reference(total int) string {
	d, ok := w.digests[total]
	if !ok {
		d = streamstats.RunShardedSerial(shardConfig(total)).Digest()
		w.digests[total] = d
	}
	return d
}

func (w *shardPaced) rep(tr *tracer) repResult {
	p := w.phase(tr, w.sz.pacedRate, w.main)
	r := p.repResult
	r.paced = p
	return r
}

// phase runs one open-loop phase of the pipeline and checks its digest.
func (w *shardPaced) phase(tr *tracer, rate float64, d time.Duration) *pacedResult {
	g := newBurstGen(rate, d, w.seed)
	want := w.reference(g.total)
	cfg := shardConfig(g.total)
	p := runPaced(tr, g, func(arrive func(*swan.Frame, int) int64, complete func(int64)) (int64, string) {
		cfg.Arrive, cfg.Complete = arrive, complete
		res := streamstats.RunSharded(w.rt, cfg)
		return res.Count, res.Digest()
	})
	if p.count != int64(g.total) || p.digest != want {
		p.failed = g.total
	}
	return p
}
