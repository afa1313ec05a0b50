package soak

import (
	"fmt"
	"sort"
	"strings"
)

// Config parameterizes one soak run. The stripe knobs follow the
// every-N-steps discipline of block-chain state fuzzers: each expensive
// op class (embedded quickcheck programs, sharded fan-outs, invariant
// sweeps, pool audits) fires on its own stride, so a long run interleaves
// them against the cheap per-step lifecycle churn without any class
// starving the others. Strides are chosen co-prime-ish so the classes
// drift through each other rather than always coinciding.
//
// A Config is part of the replay identity: a failure is reproduced by
// (config name, window seed, window length, fault step), so the
// presets registered here must never change semantics under an existing
// name — add a new name instead.
type Config struct {
	Name string

	// OpsPerWindow is the stepper length of one window — the unit of
	// replay. Each window runs as one Runtime.Run with a self-contained
	// op sequence derived from wseed = seed + windowIndex, ends fully
	// drained and audited, and its sha256 digest is the determinism
	// oracle: re-executing the window from wseed must reproduce the
	// digest bit-for-bit.
	OpsPerWindow int

	// SegCap is the hyperqueue segment capacity of the live working-set
	// queues. Small values churn the segment pool harder.
	SegCap int
	// MaxQueues caps the live-queue working set per window.
	MaxQueues int
	// MaxBurst caps the values moved by one push/pop burst.
	MaxBurst int
	// Bounds are the candidate swan.Bounded budgets for new live queues
	// (0 = unbounded). The stepper clamps bursts to the remaining credit
	// budget, so any bound >= 5 is safe (the post-Recycle rearm pushes
	// up to 4 values without a clamp).
	Bounds []int

	// Stripe knobs: the op class fires every N steps; 0 disables it.
	SweepEvery   int // invariant sweep (§4.4 walk over every live queue)
	AuditEvery   int // pool-accounting audit (segment balance equation)
	QcheckEvery  int // one embedded qcheck.GenerateMulti program
	QcheckQueues int // queue count for embedded qcheck programs
	ShardedEvery int // one qcheck.GenerateSharded fan-out
	HandoffEvery int // one bounded handoff (producer blocks on credits)
	ChaosEvery   int // one chaos kill (canceled wedge, poisoned wedge, or deadline/shed probe)

	// Window-granularity knobs.
	RebuildEveryWindows int // tear down and rebuild the runtime (pools carried over)
	ReplayEveryWindows  int // re-execute the window and compare digests
}

// presets are the registered configurations. "ci" is sized for the PR
// gate (small windows, frequent sweeps), "default" for interactive runs,
// "heavy" for the nightly and multi-hour `make soak` (long windows,
// tiny segments, big bursts — maximum pool churn), and "chaos" layers
// the kill stripe — canceled wedges, poisoned queues, deadline/shed
// probes — over the ci geometry. Existing names keep their exact
// semantics (replay identity); chaos is a new name, not a change to ci.
var presets = []Config{
	{
		Name:         "ci",
		OpsPerWindow: 2000,
		SegCap:       16,
		MaxQueues:    5,
		MaxBurst:     32,
		Bounds:       []int{0, 0, 7, 64, 256},
		SweepEvery:   200,
		AuditEvery:   400,
		QcheckEvery:  700,
		QcheckQueues: 2,
		ShardedEvery: 1500,
		HandoffEvery: 500,

		RebuildEveryWindows: 4,
		ReplayEveryWindows:  4,
	},
	{
		Name:         "chaos",
		OpsPerWindow: 2000,
		SegCap:       16,
		MaxQueues:    5,
		MaxBurst:     32,
		Bounds:       []int{0, 0, 7, 64, 256},
		SweepEvery:   200,
		AuditEvery:   300,
		QcheckEvery:  700,
		QcheckQueues: 2,
		ShardedEvery: 1500,
		HandoffEvery: 500,
		ChaosEvery:   90,

		RebuildEveryWindows: 4,
		ReplayEveryWindows:  3,
	},
	{
		Name:         "default",
		OpsPerWindow: 4000,
		SegCap:       32,
		MaxQueues:    6,
		MaxBurst:     48,
		Bounds:       []int{0, 0, 7, 64, 256},
		SweepEvery:   250,
		AuditEvery:   500,
		QcheckEvery:  900,
		QcheckQueues: 3,
		ShardedEvery: 1700,
		HandoffEvery: 700,

		RebuildEveryWindows: 8,
		ReplayEveryWindows:  5,
	},
	{
		Name:         "heavy",
		OpsPerWindow: 20000,
		SegCap:       8,
		MaxQueues:    8,
		MaxBurst:     128,
		Bounds:       []int{0, 0, 7, 64, 1024},
		SweepEvery:   500,
		AuditEvery:   1000,
		QcheckEvery:  1500,
		QcheckQueues: 3,
		ShardedEvery: 3000,
		HandoffEvery: 900,

		RebuildEveryWindows: 6,
		ReplayEveryWindows:  7,
	},
}

// LookupConfig returns the preset registered under name.
func LookupConfig(name string) (Config, bool) {
	for _, c := range presets {
		if c.Name == name {
			return c, true
		}
	}
	return Config{}, false
}

// ConfigNames lists the registered preset names, sorted.
func ConfigNames() []string {
	names := make([]string, len(presets))
	for i, c := range presets {
		names[i] = c.Name
	}
	sort.Strings(names)
	return names
}

// validate rejects geometries the stepper cannot drive safely.
func (c *Config) validate() error {
	var bad []string
	if c.OpsPerWindow < 1 {
		bad = append(bad, "OpsPerWindow must be >= 1")
	}
	if c.SegCap < 1 {
		bad = append(bad, "SegCap must be >= 1")
	}
	if c.MaxQueues < 1 {
		bad = append(bad, "MaxQueues must be >= 1")
	}
	if c.MaxBurst < 1 {
		bad = append(bad, "MaxBurst must be >= 1")
	}
	if len(c.Bounds) == 0 {
		bad = append(bad, "Bounds must list at least one candidate")
	}
	for _, b := range c.Bounds {
		// The post-Recycle rearm pushes up to 4 values without a clamp.
		if b != 0 && b < 5 {
			bad = append(bad, fmt.Sprintf("bound %d too tight (need 0 or >= 5)", b))
		}
	}
	if c.QcheckEvery > 0 && c.QcheckQueues < 1 {
		bad = append(bad, "QcheckQueues must be >= 1 when QcheckEvery is set")
	}
	if len(bad) > 0 {
		return fmt.Errorf("soak config %q: %s", c.Name, strings.Join(bad, "; "))
	}
	return nil
}
