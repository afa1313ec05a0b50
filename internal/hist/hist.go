// Package hist implements an HDR-style log-linear histogram for latency
// recording: fixed memory, no per-record allocation, bounded relative
// error. It is the measurement substrate of the open-loop latency
// harness (internal/bench): ingress-to-completion latencies in
// nanoseconds are recorded on the pipeline's egress path, so Record must
// be cheap (one branch, one shift pair, one counter increment) and must
// never allocate.
//
// Bucketing: values below 64 get exact unit buckets; larger values are
// split into octaves of 32 linear sub-buckets each (value2bucket keeps
// the top 6 significant bits), giving a worst-case relative quantization
// error of 1/64 ≈ 1.6% across the full int64 range in 1920 buckets.
package hist

import "math/bits"

const (
	unitBuckets = 64                               // exact buckets for values 0..63
	subBuckets  = 32                               // linear sub-buckets per octave
	octaves     = 64 - 6                           // bits.Len64 values 7..64 → 58 octaves
	numBuckets  = unitBuckets + octaves*subBuckets // 1920
)

// H is a log-linear histogram of non-negative int64 values (latencies in
// nanoseconds, typically). The zero value is ready to use. H is not
// synchronized: the harness records from the single egress consumer
// task, matching the hyperqueue's single-consumer discipline.
type H struct {
	counts [numBuckets]uint64
	n      uint64
	max    int64
	min    int64
	sum    int64
}

func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < unitBuckets {
		return int(u)
	}
	e := bits.Len64(u)  // 7..64
	m := u >> uint(e-6) // 32..63: top 6 significant bits
	return unitBuckets + (e-7)*subBuckets + int(m) - subBuckets
}

// bucketMid returns the midpoint of bucket i's value range, the
// representative value quantiles report.
func bucketMid(i int) int64 {
	if i < unitBuckets {
		return int64(i)
	}
	o := (i - unitBuckets) / subBuckets // octave index, 0-based
	r := (i - unitBuckets) % subBuckets
	width := int64(1) << uint(o+1)
	lo := int64(subBuckets+r) << uint(o+1)
	return lo + width/2
}

// Record adds one value.
func (h *H) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketOf(v)]++
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.n++
	h.sum += v
}

// Count reports how many values were recorded.
func (h *H) Count() uint64 { return h.n }

// Max reports the exact largest recorded value (0 when empty).
func (h *H) Max() int64 { return h.max }

// Mean reports the exact arithmetic mean (0 when empty).
func (h *H) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Quantile returns the value at quantile q in [0, 1] — Quantile(0.99) is
// the p99 — as the midpoint of the bucket holding that rank, clamped to
// the exact observed min/max. It returns 0 when the histogram is empty.
func (h *H) Quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q >= 1 {
		return h.max
	}
	rank := uint64(q * float64(h.n))
	if rank >= h.n {
		rank = h.n - 1
	}
	var cum uint64
	for i := 0; i < numBuckets; i++ {
		cum += h.counts[i]
		if cum > rank {
			v := bucketMid(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}
