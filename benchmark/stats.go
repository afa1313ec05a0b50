package main

import (
	"math"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of xs
// by the method of Python's statistics.quantiles(xs, n=4) (the exclusive
// method), so a spread computed here matches the one the acceptance
// driver computes. One sample is its own median and quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// spread is the distance between the quartiles as a share of the median:
// the run-to-run noise figure every bound in BENCHMARK.json is sized
// against.
func spread(xs []float64) float64 {
	q1, med, q3 := quartiles(xs)
	if med == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / med)
}

// percentileLadder is the set of percentiles a timing may be reported
// at, each given by the share of samples beyond it: one in 2 for the
// median up to one in 100 000 for p99.999.
var percentileLadder = []uint64{2, 4, 10, 20, 100, 1_000, 10_000, 100_000}

// highestPercentile returns the highest percentile of the ladder that
// still has at least ten of n samples beyond it, or 0 when even the
// median does not (n < 20).
func highestPercentile(n uint64) float64 {
	best := 0.0
	for _, oneIn := range percentileLadder {
		if n/oneIn >= 10 {
			best = 100 - 100/float64(oneIn)
		}
	}
	return best
}

// latHist is a linear histogram of latencies in nanoseconds: fixed
// memory, no allocation per record, and fine enough (1 µs) that a
// percentile interpolated inside its bucket reads as a measured value
// rather than a bucket label — internal/hist's 1/64-relative buckets
// would print the same p50 on every run.
type latHist struct {
	counts []uint32 // counts[i] holds latencies in [i, i+1) µs; the last bucket also holds everything above
	n      uint64
	max    int64
	over   uint64 // records above lateLimitNs
}

const (
	latHistBuckets = 200_000   // 200 ms of 1 µs buckets
	lateLimitNs    = 5_000_000 // one burst period: an item this late met the next burst
)

func newLatHist() *latHist { return &latHist{counts: make([]uint32, latHistBuckets)} }

func (h *latHist) record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	b := ns / 1000
	if b >= latHistBuckets {
		b = latHistBuckets - 1
	}
	h.counts[b]++
	h.n++
	if ns > h.max {
		h.max = ns
	}
	if ns > lateLimitNs {
		h.over++
	}
}

// percentileUs returns the p-th percentile in microseconds, placing the
// rank linearly inside its bucket.
func (h *latHist) percentileUs(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := p / 100 * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			v := float64(i) + (rank-cum)/float64(c)
			if mx := float64(h.max) / 1000; v > mx {
				v = mx
			}
			return v
		}
		cum += float64(c)
	}
	return float64(h.max) / 1000
}

func (h *latHist) lateFrac() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.over) / float64(h.n)
}
