package soak

import (
	"flag"
	"strings"
	"testing"
)

// TestSoakShort runs a bounded soak: no oracle may fire, and every op
// class the ci config stripes in must actually have run — a soak that
// silently skips its sweeps or audits proves nothing.
func TestSoakShort(t *testing.T) {
	steps := int64(24_000)
	if testing.Short() {
		// Still ≥ RebuildEveryWindows+1 windows of the ci config, so the
		// rebuild and replay stripes run at least once.
		steps = 10_000
	}
	cfg, ok := LookupConfig("ci")
	if !ok {
		t.Fatal("ci config missing")
	}
	// The subtest keeps the name it had when the soak also ran on a
	// second scheduler; the seed is the one that run used.
	t.Run("steal", func(t *testing.T) {
		r, err := New(cfg, Options{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		rep, fail := r.Run(0x50a9, steps)
		if fail != nil {
			t.Fatalf("soak failed:\n%s\nop log:\n%s", fail.FailLine(), fail.OpLog)
		}
		if rep.Steps != steps {
			t.Fatalf("ran %d steps, want %d", rep.Steps, steps)
		}
		for name, n := range map[string]int64{
			"sweeps":   rep.Sweeps,
			"audits":   rep.Audits,
			"recycles": rep.Recycles,
			"qchecks":  rep.Qchecks,
			"shardeds": rep.Shardeds,
			"handoffs": rep.Handoffs,
			"rebuilds": rep.Rebuilds,
			"replays":  rep.Replays,
		} {
			if n == 0 {
				t.Errorf("op class %s never ran", name)
			}
		}
		if rep.Pushed != rep.Popped {
			t.Errorf("pushed %d values but popped %d — windows must end drained",
				rep.Pushed, rep.Popped)
		}
	})
}

// TestInjectedFaultDetected is the harness's negative control: a
// model-invisible value injected mid-run must produce a failure, and
// the failure's replay recipe (wseed, window length, in-window fault
// step) must reproduce the identical report at any worker count. The
// FAIL line's replay command names no scheduler, and run as printed it
// reproduces the same failure.
func TestInjectedFaultDetected(t *testing.T) {
	cfg, _ := LookupConfig("ci")
	r, err := New(cfg, Options{Workers: 4, FaultStep: 4321})
	if err != nil {
		t.Fatal(err)
	}
	_, fail := r.Run(3, 9000)
	if fail == nil {
		t.Fatal("injected fault was not detected")
	}
	if fail.Fault == 0 {
		t.Fatalf("failure does not carry the fault step: %+v", fail)
	}
	line := fail.FailLine()
	if !strings.Contains(line, "-fault") {
		t.Fatalf("FAIL line lacks the -fault replay flag:\n%s", line)
	}
	if strings.Contains(line, "policy") {
		t.Fatalf("FAIL line names a scheduler:\n%s", line)
	}
	replay := func(workers int, fault int64, wseed uint64, steps int64) {
		t.Helper()
		r2, err := New(cfg, Options{Workers: workers, FaultStep: fault})
		if err != nil {
			t.Fatal(err)
		}
		_, fail2 := r2.Run(wseed, steps)
		if fail2 == nil {
			t.Fatalf("replay (%d workers) did not reproduce the failure", workers)
		}
		if fail2.Msg != fail.Msg || fail2.Step != fail.Step-(fail.Window*int64(cfg.OpsPerWindow)) {
			t.Fatalf("replay (%d workers) diverged:\noriginal: step=%d %s\nreplay:   step=%d %s",
				workers, fail.Step, fail.Msg, fail2.Step, fail2.Msg)
		}
	}
	for _, workers := range []int{2, 7} {
		replay(workers, fail.Fault, fail.WSeed, fail.Steps)
	}

	// Parse the printed replay command with cmd/soakfuzz's flag names and
	// run what it says.
	_, cmd, ok := strings.Cut(line, "\nreplay: go run ./cmd/soakfuzz ")
	if !ok {
		t.Fatalf("FAIL line has no soakfuzz replay command:\n%s", line)
	}
	fs := flag.NewFlagSet("soakfuzz", flag.ContinueOnError)
	config := fs.String("config", "", "")
	workers := fs.Int("workers", 0, "")
	seed := fs.Uint64("seed", 0, "")
	steps := fs.Int64("steps", 0, "")
	fault := fs.Int64("fault", 0, "")
	if err := fs.Parse(strings.Fields(cmd)); err != nil {
		t.Fatalf("replay command %q does not parse as soakfuzz flags: %v", cmd, err)
	}
	if *config != cfg.Name {
		t.Fatalf("replay command names config %q, want %q", *config, cfg.Name)
	}
	replay(*workers, *fault, *seed, *steps)
}

// TestWindowDigestScheduleIndependent pins the replay-window oracle
// itself: the digest folds every value every oracle observed, so it must
// be bit-identical across worker counts — the paper's
// determinism claim applied to the fuzzer's whole op mix.
func TestWindowDigestScheduleIndependent(t *testing.T) {
	cfg, _ := LookupConfig("ci")
	steps := int64(cfg.OpsPerWindow)
	var ref [32]byte
	for i, opt := range []Options{
		{Workers: 1},
		{Workers: 8},
		{Workers: 4},
	} {
		d, fail := WindowDigest(cfg, opt, 42, steps)
		if fail != nil {
			t.Fatalf("window failed under %+v: %s", opt, fail.Msg)
		}
		if i == 0 {
			ref = d
			continue
		}
		if d != ref {
			t.Fatalf("digest diverged under %+v: %x vs %x", opt, d, ref)
		}
	}
}

func TestConfigPresets(t *testing.T) {
	names := ConfigNames()
	if len(names) < 3 {
		t.Fatalf("want at least ci/default/heavy presets, have %v", names)
	}
	for _, name := range names {
		cfg, ok := LookupConfig(name)
		if !ok {
			t.Fatalf("ConfigNames lists %q but LookupConfig misses it", name)
		}
		if err := cfg.validate(); err != nil {
			t.Errorf("preset %q invalid: %v", name, err)
		}
	}
	if _, ok := LookupConfig("no-such-config"); ok {
		t.Error("LookupConfig accepted an unknown name")
	}
	bad := Config{Name: "bad", OpsPerWindow: 100, SegCap: 4, MaxQueues: 2,
		MaxBurst: 8, Bounds: []int{3}}
	if err := bad.validate(); err == nil {
		t.Error("validate accepted a bound of 3 (rearm pushes up to 4 values)")
	}
	if _, err := New(bad, Options{}); err == nil {
		t.Error("New accepted an invalid config")
	}
}
