package streamstats

import (
	"fmt"
	"math"
	"testing"

	"repro/swan"
)

func testConfig() Config {
	return Config{Samples: 200_000, Sensors: 16, SegCap: 1024, Batch: 256}
}

// TestDigestDeterministic: the full result — per-sensor Welford moments
// from the reducer plus the order-dependent EWMA from the queue — must
// be bit-identical to the serial elision under every worker
// count and repetition.
func TestDigestDeterministic(t *testing.T) {
	cfg := testConfig()
	want := RunSerial(cfg).Digest()
	for _, workers := range []int{1, 4, 8} {
		// "policy=steal" keeps the case names the sweep had when it also
		// ran a second scheduler; the work-stealing one is the only one now.
		t.Run(fmt.Sprintf("policy=steal/workers=%d", workers), func(t *testing.T) {
			for rep := 0; rep < 3; rep++ {
				got := Run(swan.New(workers), cfg).Digest()
				if got != want {
					t.Fatalf("rep %d: digest %s, serial elision has %s", rep, got, want)
				}
			}
		})
	}
}

func TestMomentsMatchDirectComputation(t *testing.T) {
	cfg := Config{Samples: 10_000, Sensors: 4, SegCap: 256, Batch: 128}
	res := Run(swan.New(4), cfg)
	for s, m := range res.Sensors {
		if m.N != int64(cfg.Samples/cfg.Sensors) {
			t.Fatalf("sensor %d: N = %d, want %d", s, m.N, cfg.Samples/cfg.Sensors)
		}
		// Sensor s's stream is float64(s) + standard normal noise.
		if math.Abs(m.Mean-float64(s)) > 0.1 {
			t.Errorf("sensor %d: mean = %g, want ≈ %d", s, m.Mean, s)
		}
		if sd := m.Stddev(); math.Abs(sd-1) > 0.1 {
			t.Errorf("sensor %d: stddev = %g, want ≈ 1", s, sd)
		}
	}
}

func TestMomentsMergeAgreesWithSequentialAdd(t *testing.T) {
	var whole, a, b Moments
	for i := 0; i < 100; i++ {
		v := float64(i%7) - 3
		whole.Add(v)
		if i < 40 {
			a.Add(v)
		} else {
			b.Add(v)
		}
	}
	a.Merge(b)
	if a.N != whole.N || math.Abs(a.Mean-whole.Mean) > 1e-9 || math.Abs(a.M2-whole.M2) > 1e-6 {
		t.Fatalf("merged moments %+v differ from sequential %+v", a, whole)
	}
	if a.Min != whole.Min || a.Max != whole.Max {
		t.Fatalf("merged range [%g,%g], sequential [%g,%g]", a.Min, a.Max, whole.Min, whole.Max)
	}
}

func TestDigestSensitiveToBits(t *testing.T) {
	r := RunSerial(Config{Samples: 1000, Sensors: 2})
	d1 := r.Digest()
	r.Sensors[1].M2 = math.Nextafter(r.Sensors[1].M2, math.Inf(1))
	if r.Digest() == d1 {
		t.Fatal("digest unchanged by a one-ulp perturbation")
	}
}
