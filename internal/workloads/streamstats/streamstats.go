// Package streamstats is the sensor-stream statistics workload behind
// examples/streamstats: per-sensor producers bulk-write samples through
// a hyperqueue (the §5.2 slice API) while folding per-sensor running
// moments into a swan.Reducer, and a serial consumer computes the
// order-dependent exponentially weighted moving average from the
// queue's deterministic stream order.
//
// The reducer fold is exactly deterministic despite floating point:
// every sensor owns one slot of the Partials array, so each slot has a
// single writer and every merge the runtime performs is a disjoint
// union — no floating-point addition ever reassociates. The EWMA is not
// associative at all, which is why it lives on the serial consumer: the
// hyperqueue fixes its input order to the serial elision's. Together
// the whole Result is bit-identical across schedules and worker
// counts, which Digest makes checkable.
package streamstats

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/swan"
)

// MaxSensors bounds the sensor count so Partials can be a fixed-size
// value type (a requirement for a cheap, allocation-free monoid).
const MaxSensors = 64

// Moments holds running statistics of one sensor's stream: count, mean
// and second central moment (Welford), plus the observed range.
type Moments struct {
	N        int64
	Mean, M2 float64
	Min, Max float64
}

// Add folds one observation into the moments (Welford's update).
func (m *Moments) Add(v float64) {
	if m.N == 0 {
		m.Min, m.Max = v, v
	} else if v < m.Min {
		m.Min = v
	} else if v > m.Max {
		m.Max = v
	}
	m.N++
	d := v - m.Mean
	m.Mean += d / float64(m.N)
	m.M2 += d * (v - m.Mean)
}

// Merge folds another moments value in (the parallel Welford merge of
// Chan et al.). Exact when either side is empty — the only case the
// streamstats reducer produces, since each slot has one writer.
func (m *Moments) Merge(o Moments) {
	if o.N == 0 {
		return
	}
	if m.N == 0 {
		*m = o
		return
	}
	if o.Min < m.Min {
		m.Min = o.Min
	}
	if o.Max > m.Max {
		m.Max = o.Max
	}
	n1, n2 := float64(m.N), float64(o.N)
	d := o.Mean - m.Mean
	m.N += o.N
	m.Mean += d * n2 / (n1 + n2)
	m.M2 += o.M2 + d*d*n1*n2/(n1+n2)
}

// Stddev reports the sample standard deviation.
func (m Moments) Stddev() float64 {
	if m.N < 2 {
		return 0
	}
	return math.Sqrt(m.M2 / float64(m.N-1))
}

// Partials is the reducer's view value: one moments slot per sensor.
type Partials struct {
	S [MaxSensors]Moments
}

// PartialsMonoid is the slot-wise merge monoid. It is exactly
// associative for the disjoint-slot write pattern Run uses (each merge
// meets at most one non-empty side per slot).
func PartialsMonoid() swan.Monoid[Partials] {
	return swan.Monoid[Partials]{
		Identity: func() Partials { return Partials{} },
		Combine: func(into *Partials, from Partials) {
			for i := range into.S {
				into.S[i].Merge(from.S[i])
			}
		},
	}
}

// Config sizes one run.
type Config struct {
	Samples int // total samples across all sensors
	Sensors int // parallel producers (≤ MaxSensors)
	SegCap  int // queue segment capacity (0 = 4096)
	Batch   int // consumer read-slice batch (0 = 1024)
}

func (c *Config) defaults() {
	if c.SegCap == 0 {
		c.SegCap = 4096
	}
	if c.Batch == 0 {
		c.Batch = 1024
	}
}

// Result is one run's complete output: the serial-order EWMA from the
// queue consumer and the per-sensor moments from the reducer.
type Result struct {
	Count   int64
	EWMA    float64
	Sensors []Moments
}

// Total merges every sensor's moments into one (exact merges are not
// guaranteed here — this is a display aggregate, not part of Digest).
func (r Result) Total() Moments {
	var t Moments
	for _, m := range r.Sensors {
		t.Merge(m)
	}
	return t
}

// Digest is a bit-exact fingerprint of the result: every float is
// folded in by its IEEE-754 bit pattern, so two digests agree iff the
// results are identical to the last bit.
func (r Result) Digest() string {
	h := sha256.New()
	var buf [8]byte
	w := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	w(uint64(r.Count))
	w(math.Float64bits(r.EWMA))
	for _, m := range r.Sensors {
		w(uint64(m.N))
		w(math.Float64bits(m.Mean))
		w(math.Float64bits(m.M2))
		w(math.Float64bits(m.Min))
		w(math.Float64bits(m.Max))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// sample reproduces sensor s's deterministic stream.
func sample(s int, r *rng.RNG) float64 { return float64(s) + r.NormFloat64() }

const ewmaAlpha = 0.001

// Run executes the pipeline on rt: cfg.Sensors producer tasks each
// bulk-push their stream through the queue and fold their moments into
// their reducer slot; the consumer computes the EWMA in serial stream
// order. The Result is deterministic — identical Digest for any
// schedule or worker count (see RunSerial for the elision).
func Run(rt *swan.Runtime, cfg Config) Result {
	cfg.defaults()
	if cfg.Sensors < 1 || cfg.Sensors > MaxSensors {
		panic(fmt.Sprintf("streamstats: sensors must be 1..%d", MaxSensors))
	}
	var res Result
	rt.Run(func(f *swan.Frame) {
		q := swan.NewQueueWithCapacity[float64](f, cfg.SegCap, swan.Named("sensor.samples"))
		stats := swan.NewReducer(f, PartialsMonoid(), swan.HyperNamed("sensor.moments"))

		perSensor := cfg.Samples / cfg.Sensors
		for s := 0; s < cfg.Sensors; s++ {
			s := s
			f.Spawn(func(c *swan.Frame) {
				h := stats.BindReduce(c)
				r := rng.New(uint64(s) + 1)
				remaining := perSensor
				for remaining > 0 {
					n := 512
					if n > remaining {
						n = remaining
					}
					w := q.WriteSlice(c, n)
					for i := range w {
						w[i] = sample(s, r)
					}
					// Fold the batch into this sensor's slot before the
					// commit invalidates the write slice.
					h.Update(func(p *Partials) {
						for _, v := range w {
							p.S[s].Add(v)
						}
					})
					q.CommitWrite(c, len(w))
					remaining -= n
				}
			}, swan.Push(q), swan.Reduce(stats))
		}

		swan.DrainSlices(f, q, cfg.Batch, func(batch []float64) {
			for _, v := range batch {
				res.Count++
				res.EWMA = (1-ewmaAlpha)*res.EWMA + ewmaAlpha*v
			}
		})
		f.Sync()
		p := stats.Value(f)
		res.Sensors = append([]Moments(nil), p.S[:cfg.Sensors]...)
	})
	return res
}

// RunSerial is the sequential reference: sensor streams in spawn order,
// exactly the serial elision of Run.
func RunSerial(cfg Config) Result {
	cfg.defaults()
	if cfg.Sensors < 1 || cfg.Sensors > MaxSensors {
		panic(fmt.Sprintf("streamstats: sensors must be 1..%d", MaxSensors))
	}
	var res Result
	var p Partials
	perSensor := cfg.Samples / cfg.Sensors
	for s := 0; s < cfg.Sensors; s++ {
		r := rng.New(uint64(s) + 1)
		for i := 0; i < perSensor; i++ {
			v := sample(s, r)
			p.S[s].Add(v)
			res.Count++
			res.EWMA = (1-ewmaAlpha)*res.EWMA + ewmaAlpha*v
		}
	}
	res.Sensors = append([]Moments(nil), p.S[:cfg.Sensors]...)
	return res
}
