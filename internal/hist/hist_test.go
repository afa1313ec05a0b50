package hist

import (
	"math"
	"sort"
	"testing"
)

func TestSmallValuesExact(t *testing.T) {
	var h H
	for v := int64(0); v < 64; v++ {
		h.Record(v)
	}
	if h.Count() != 64 || h.min != 0 || h.Max() != 63 {
		t.Fatalf("count=%d min=%d max=%d", h.Count(), h.min, h.Max())
	}
	// Every value below 64 has its own bucket, so quantiles are exact.
	for v := int64(0); v < 64; v++ {
		q := (float64(v) + 0.5) / 64
		if got := h.Quantile(q); got != v {
			t.Fatalf("Quantile(%v) = %d, want %d", q, got, v)
		}
	}
}

func TestBucketBoundariesContinuous(t *testing.T) {
	// Every value must land in a bucket whose midpoint is within 1/32 of
	// it, and bucket indices must be monotone in the value.
	prev := -1
	for _, v := range []int64{0, 1, 63, 64, 65, 127, 128, 1000, 1 << 20, 1<<40 + 12345, math.MaxInt64} {
		b := bucketOf(v)
		if b < prev {
			t.Fatalf("bucketOf(%d) = %d < previous %d (not monotone)", v, b, prev)
		}
		prev = b
		if v >= 64 {
			mid := bucketMid(b)
			if rel := math.Abs(float64(mid-v)) / float64(v); rel > 1.0/32 {
				t.Fatalf("bucketMid(bucketOf(%d)) = %d, rel err %.4f > 1/32", v, mid, rel)
			}
		}
	}
	if b := bucketOf(math.MaxInt64); b >= numBuckets {
		t.Fatalf("bucketOf(MaxInt64) = %d out of range %d", b, numBuckets)
	}
}

func TestQuantileRelativeError(t *testing.T) {
	// Deterministic pseudo-random values across several octaves; compare
	// histogram quantiles against exact order statistics.
	var h H
	vals := make([]int64, 0, 10000)
	x := uint64(1)
	for i := 0; i < 10000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v := int64(x % 50_000_000) // 0..50ms in ns
		vals = append(vals, v)
		h.Record(v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := vals[int(q*float64(len(vals)))]
		got := h.Quantile(q)
		if exact == 0 {
			continue
		}
		if rel := math.Abs(float64(got-exact)) / float64(exact); rel > 0.04 {
			t.Fatalf("Quantile(%v) = %d, exact %d, rel err %.4f > 4%%", q, got, exact, rel)
		}
	}
	if h.Quantile(0) != h.min || h.Quantile(1) != h.Max() {
		t.Fatalf("extreme quantiles not clamped to min/max: q0=%d min=%d q1=%d max=%d",
			h.Quantile(0), h.min, h.Quantile(1), h.Max())
	}
}

func TestEmpty(t *testing.T) {
	var h H
	if h.Quantile(0.99) != 0 || h.Count() != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram not all-zero")
	}
}

func TestRecordNoAlloc(t *testing.T) {
	var h H
	n := testing.AllocsPerRun(1000, func() { h.Record(123456) })
	if n != 0 {
		t.Fatalf("Record allocates %v per call, want 0", n)
	}
}
