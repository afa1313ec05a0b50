// Package soak is the long-horizon lifecycle fuzzer of the verification
// stack. Where qcheck generates one random task tree, executes it on a
// fresh runtime and compares against the serial elision, soak drives one
// long-lived runtime through millions of stepper operations mixing every
// lifecycle surface the library has — queue creation (bounded, named),
// push/pop bursts through every primitive (Push, PushSlice, blocking
// Pop, Empty-guarded TryPop, PopInto, ReadSlice/ConsumeRead), producer
// and consumer child tasks, reducer folds, hypermap puts, sharded
// fan-outs, embedded qcheck programs, Recycle/rearm, and periodic
// runtime teardown/rebuild with the segment pools carried over — while
// three oracles watch:
//
//   - a serial model: every queue carries a model FIFO played in program
//     order; every popped value is compared against it, every reducer
//     fold and hypermap winner against its serial counterpart;
//   - invariant sweeps: every SweepEvery steps the stepper syncs and
//     walks the §4.4 invariants of every live queue (the per-operation
//     no-hidden-data assertions stay enabled throughout);
//   - a pool audit: every AuditEvery steps, segment conservation is
//     checked exactly — SegmentAllocs == PooledSegments +
//     DroppedSegments + retired + Σ live chain segments — so a single
//     leaked or double-recycled segment fails the run at the next stripe.
//     The same stripe checks the spawn side's books: every task the
//     scheduler dispatched ran on a record that was either allocated
//     fresh or taken from a worker's free list, Spawns == TaskAllocs +
//     TaskReuses (how many records a free list may hold is bounded by
//     construction, and asserted in internal/sched's own tests) — and
//     the wake protocol's: on every metered queue a wake is one push or
//     pop signalling a sleeper and a block is one sleep, so ConsumerWakes
//     ≤ ConsumerBlocks and ProducerWakes ≤ ProducerBlocks.
//
// Execution is windowed: each window of OpsPerWindow steps runs as one
// Runtime.Run, derives its op sequence from wseed = seed + windowIndex,
// ends fully drained and audited, and folds everything it observed into
// a sha256 digest. The digest is the replay oracle: every
// ReplayEveryWindows windows the window is re-executed from wseed on a
// fresh runtime and must reproduce the digest bit-for-bit — the paper's
// determinism claim, checked end-to-end over the whole lifecycle mix. A
// failure is reported as a one-line FAIL record whose replay command
// re-runs exactly the failing window.
package soak

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/qcheck"
	"repro/internal/rng"
	"repro/swan"
)

// Fault kinds for Options.FaultStep: the deliberate bug classes the
// negative smoke injects to prove the harness still detects failures.
const (
	// FaultValue injects a model-invisible value; the drain compare must
	// catch it.
	FaultValue = "value"
	// FaultCancel cancels the window's root scope; the next blocking op
	// must unwind and Run must report the cancellation, which the
	// harness converts into a window failure.
	FaultCancel = "cancel"
)

// Options configures a Runner beyond the step-mix Config.
type Options struct {
	// Workers is the runtime worker count (default 4).
	Workers int
	// Policy selects the scheduling substrate.
	Policy swan.SpawnPolicy
	// FaultStep, when > 0, injects a deliberate bug at that global
	// 1-based step: the harness must detect it and the failure must
	// replay deterministically. This is the harness's own smoke test — a
	// fuzzer that cannot fail finds nothing.
	FaultStep int64
	// FaultKind selects the injected bug class (FaultValue, FaultCancel).
	// Empty means FaultValue.
	FaultKind string
	// Progress, when set, receives occasional one-line status reports.
	Progress func(format string, args ...any)
}

// Report summarizes a completed run. Counters accumulate over primary
// and replayed windows alike.
type Report struct {
	Steps    int64 // primary stepper operations executed
	Windows  int64 // primary windows completed
	Sweeps   int64 // invariant sweeps (all clean)
	Audits   int64 // pool audits (all balanced)
	Replays  int64 // replay windows compared (all digest-identical)
	Rebuilds int64 // runtime teardown/rebuild cycles
	Recycles int64 // Queue.Recycle calls (mid-window rearms + end-of-window)
	Qchecks  int64 // embedded qcheck programs (all matched their oracle)
	Shardeds int64 // sharded fan-outs (all matched the serial elision)
	Handoffs int64 // bounded handoffs (producer blocked on credits)
	Chaos    int64 // chaos kills (canceled wedges, poisoned wedges, deadline/shed probes)
	Pushed   int64 // values pushed through live working-set queues
	Popped   int64 // values popped from live working-set queues
	Retired  uint64
	// Interrupted reports the run ended early via Runner.Stop (SIGINT):
	// the in-flight window was canceled and drained, not failed.
	Interrupted bool
	// FinalStats snapshots the long-lived runtime after the last window.
	FinalStats swan.RuntimeStats
}

// Failure describes one detected violation, with everything needed to
// replay it: the window is re-run by seeding a fresh one-window soak
// with the failing window's wseed.
type Failure struct {
	Config    string
	Policy    string
	Workers   int
	Window    int64  // index of the failing window in the original run
	WSeed     uint64 // the window's seed — the replay seed
	Steps     int64  // the window's length — the replay step count
	Step      int64  // global step at failure (best effort for panics)
	Fault     int64  // in-window fault step, 0 if none was injected
	FaultKind string // injected bug class (FaultValue, FaultCancel); "" if none
	Msg       string
	OpLog     string // the failing window's op log, up to the failure
}

// FailLine renders the quickcheck-style one-line failure record followed
// by a copy-pasteable replay command that re-executes exactly the
// failing window.
func (fl *Failure) FailLine() string {
	cmd := fmt.Sprintf(
		"go run ./cmd/soakfuzz -config %s -policy %s -workers %d -seed %d -steps %d",
		fl.Config, fl.Policy, fl.Workers, fl.WSeed, fl.Steps)
	if fl.Fault > 0 {
		cmd += fmt.Sprintf(" -fault %d", fl.Fault)
		if fl.FaultKind != "" && fl.FaultKind != FaultValue {
			cmd += fmt.Sprintf(" -faultkind %s", fl.FaultKind)
		}
	}
	return fmt.Sprintf(
		"FAIL soak config=%s policy=%s window=%d wseed=%d step=%d: %s\nreplay: %s",
		fl.Config, fl.Policy, fl.Window, fl.WSeed, fl.Step, fl.Msg, cmd)
}

// PolicyName renders a SpawnPolicy as the -policy flag spelling.
func PolicyName(p swan.SpawnPolicy) string {
	if p == swan.PolicyGoroutine {
		return "goroutine"
	}
	return "steal"
}

// ParsePolicy is the inverse of PolicyName.
func ParsePolicy(s string) (swan.SpawnPolicy, error) {
	switch s {
	case "steal":
		return swan.PolicySteal, nil
	case "goroutine":
		return swan.PolicyGoroutine, nil
	}
	return swan.PolicySteal, fmt.Errorf("unknown policy %q (want steal or goroutine)", s)
}

// Runner drives soak windows against one long-lived runtime.
type Runner struct {
	cfg Config
	opt Options
	rep Report
	// retired counts segments abandoned with dead queues — every queue a
	// window leaves behind is counted at quiescence before abandonment,
	// so the audit balance stays closed across the provider's whole life
	// (the pool is carried across runtime rebuilds).
	retired uint64

	// Stop support: current is whichever runtime a window is executing
	// on right now (the long-lived one, or a replay's), so an external
	// Stop can reach its cancel scope.
	mu      sync.Mutex
	current *swan.Runtime
	stopped bool
}

// Stop cancels the in-flight window through the runtime's cancellation
// API and makes Run return cleanly once it unwinds: parked producers
// and consumers wake and unwind, views fold, and the report (including
// the final stats snapshot) stays valid at the interrupted point. Safe
// to call from any goroutine — a signal handler, typically.
func (r *Runner) Stop() {
	r.mu.Lock()
	r.stopped = true
	rt := r.current
	r.mu.Unlock()
	if rt != nil {
		rt.Cancel(nil)
	}
}

// Stopped reports whether Stop has been called.
func (r *Runner) Stopped() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stopped
}

func (r *Runner) setCurrent(rt *swan.Runtime) *swan.Runtime {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.current = rt
	return rt
}

// New returns a Runner for the given config and options. The config must
// validate.
func New(cfg Config, opt Options) (*Runner, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if opt.Workers <= 0 {
		opt.Workers = 4
	}
	switch opt.FaultKind {
	case "":
		opt.FaultKind = FaultValue
	case FaultValue, FaultCancel:
	default:
		return nil, fmt.Errorf("unknown fault kind %q (want %s or %s)",
			opt.FaultKind, FaultValue, FaultCancel)
	}
	return &Runner{cfg: cfg, opt: opt}, nil
}

// Run executes steps stepper operations starting from seed and returns
// the report, plus a Failure if any oracle fired. The per-operation
// debug assertions (no-hidden-data) are enabled process-wide for the
// duration.
func (r *Runner) Run(seed uint64, steps int64) (Report, *Failure) {
	swan.SetQueueDebugChecks(true)
	rt := r.setCurrent(swan.NewWithPolicy(r.opt.Workers, r.opt.Policy))
	var done, window int64
	for done < steps {
		if r.Stopped() {
			r.rep.Interrupted = true
			break
		}
		n := int64(r.cfg.OpsPerWindow)
		if steps-done < n {
			n = steps - done
		}
		wseed := seed + uint64(window)
		var fault int64
		if fs := r.opt.FaultStep; fs > done && fs <= done+n {
			fault = fs - done
		}
		res, fail := r.runWindow(rt, &r.retired, wseed, n, fault)
		if fail != nil {
			if r.Stopped() {
				// Stop canceled the window mid-flight: a clean interrupt,
				// not an oracle violation.
				r.rep.Interrupted = true
				return r.report(rt), nil
			}
			r.decorate(fail, window, wseed, n, done)
			return r.report(rt), fail
		}
		if k := int64(r.cfg.ReplayEveryWindows); k > 0 && window%k == k-1 {
			// Replay-window determinism check: a fresh runtime (own pool,
			// own retired tally) re-executes the window from wseed. The
			// digest folds every value every oracle saw, so a single
			// reordered or corrupted element diverges it.
			var retired2 uint64
			res2, fail2 := r.runWindow(r.setCurrent(swan.NewWithPolicy(r.opt.Workers, r.opt.Policy)),
				&retired2, wseed, n, fault)
			r.setCurrent(rt)
			switch {
			case fail2 != nil:
				if r.Stopped() {
					r.rep.Interrupted = true
					return r.report(rt), nil
				}
				fail2.Msg = "replay of a clean window failed: " + fail2.Msg
				r.decorate(fail2, window, wseed, n, done)
				return r.report(rt), fail2
			case res2.digest != res.digest:
				fail := &Failure{
					Msg: fmt.Sprintf("replay-window digest mismatch: %x vs %x",
						res.digest, res2.digest),
					Step: done + n,
				}
				r.decorate(fail, window, wseed, n, done)
				return r.report(rt), fail
			}
			r.rep.Replays++
		}
		done += n
		window++
		r.rep.Steps = done
		r.rep.Windows = window
		if k := int64(r.cfg.RebuildEveryWindows); k > 0 && window%k == 0 && done < steps {
			// Teardown/rebuild: the old runtime is abandoned (Run leaves
			// no live workers between calls), the new one inherits the
			// segment pools — so pooled-segment reuse, and the audit
			// balance, span rebuild boundaries.
			old := rt
			rt = r.setCurrent(swan.NewWithPolicy(r.opt.Workers, r.opt.Policy))
			core.CarryProvider(old, rt)
			r.rep.Rebuilds++
		}
		if r.opt.Progress != nil && window%16 == 0 {
			r.opt.Progress("soak: %d/%d steps, %d windows, %d sweeps, %d audits, %d replays, %d rebuilds",
				done, steps, r.rep.Windows, r.rep.Sweeps, r.rep.Audits, r.rep.Replays, r.rep.Rebuilds)
		}
	}
	return r.report(rt), nil
}

// WindowDigest executes a single window in isolation on a fresh runtime
// and returns its digest. It is the determinism test hook: the digest
// must depend only on (config, wseed, steps, fault) — never on the
// policy, the worker count, or scheduling luck.
func WindowDigest(cfg Config, opt Options, wseed uint64, steps int64) ([sha256.Size]byte, *Failure) {
	r, err := New(cfg, opt)
	if err != nil {
		return [sha256.Size]byte{}, &Failure{Msg: err.Error()}
	}
	swan.SetQueueDebugChecks(true)
	rt := swan.NewWithPolicy(r.opt.Workers, r.opt.Policy)
	var fault int64
	if fs := r.opt.FaultStep; fs > 0 && fs <= steps {
		fault = fs
	}
	res, fail := r.runWindow(rt, &r.retired, wseed, steps, fault)
	if fail != nil {
		r.decorate(fail, 0, wseed, steps, 0)
	}
	return res.digest, fail
}

func (r *Runner) report(rt *swan.Runtime) Report {
	rep := r.rep
	rep.Retired = r.retired
	rep.FinalStats = swan.Stats(rt)
	return rep
}

func (r *Runner) decorate(fail *Failure, window int64, wseed uint64, n, done int64) {
	fail.Config = r.cfg.Name
	fail.Policy = PolicyName(r.opt.Policy)
	fail.Workers = r.opt.Workers
	fail.Window = window
	fail.WSeed = wseed
	fail.Steps = n
	fail.Step += done
	if fail.Fault > 0 {
		fail.FaultKind = r.opt.FaultKind
	}
}

type windowResult struct {
	digest [sha256.Size]byte
}

// failPanic carries an oracle violation out of the window stepper; the
// runtime quiesces the remaining tasks (all of which can complete — the
// stepper never schedules work that depends on future ops) and
// runWindow's recover converts it into a Failure.
type failPanic struct{ msg string }

func (r *Runner) runWindow(rt *swan.Runtime, retired *uint64, wseed uint64, steps, fault int64) (res windowResult, fail *Failure) {
	w := &window{
		r:       r,
		rng:     rng.New(wseed),
		h:       sha256.New(),
		prov:    core.ProviderOf(rt),
		retired: retired,
		steps:   steps,
		fault:   fault,
	}
	defer func() {
		if p := recover(); p != nil {
			msg := fmt.Sprintf("panic: %v", p)
			if fp, ok := p.(failPanic); ok {
				msg = fp.msg
			}
			fail = &Failure{Step: w.step, Fault: fault, Msg: msg, OpLog: w.renderLog()}
		}
	}()
	if err := rt.Run(func(f *swan.Frame) {
		w.f = f
		w.run()
	}); err != nil {
		// The window's root scope was canceled — either the injected
		// cancel fault or a genuine bug. Either way the window did not
		// complete its oracles, so it is a failure.
		return res, &Failure{
			Step:  w.step,
			Fault: fault,
			Msg:   fmt.Sprintf("window Run ended canceled: %v", err),
			OpLog: w.renderLog(),
		}
	}
	w.h.Sum(res.digest[:0])
	return res, nil
}

// liveQ is one working-set queue plus its serial model: the values
// pushed (by the root or by already-spawned producer children, in
// program order) and not yet claimed by a pop.
type liveQ struct {
	id    int
	q     *swan.Queue[uint64]
	bound int // 0 = unbounded
	model []uint64
}

// deferredPop is a consumer child's pending verification: the child
// fills got concurrently; the next sync point compares it against want
// and folds it into the digest, in spawn order.
type deferredPop struct {
	qid  int
	want []uint64
	got  []uint64
}

type window struct {
	r       *Runner
	f       *swan.Frame
	rng     *rng.RNG
	h       hash.Hash
	prov    *core.PoolProvider
	retired *uint64
	steps   int64
	fault   int64
	step    int64 // current 1-based step

	qs       []*liveQ
	nq       int
	red      *swan.Reducer[uint64]
	redModel uint64
	hmap     *swan.Hypermap[uint64, uint64]
	hmapW    map[uint64]uint64 // serial first-writer-wins winners
	deferred []deferredPop
	log      []string
}

func (w *window) logf(format string, args ...any) {
	w.log = append(w.log, fmt.Sprintf(format, args...))
}

func (w *window) renderLog() string {
	if len(w.log) == 0 {
		return ""
	}
	return strings.Join(w.log, "\n") + "\n"
}

func (w *window) failf(format string, args ...any) {
	panic(failPanic{fmt.Sprintf("step %d: %s", w.step, fmt.Sprintf(format, args...))})
}

// d8 folds values into the window digest.
func (w *window) d8(vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		w.h.Write(b[:])
	}
}

func (w *window) tag(s string) { w.h.Write([]byte(s)) }

// draw returns k fresh pseudo-random payload values.
func (w *window) draw(k int) []uint64 {
	vs := make([]uint64, k)
	for i := range vs {
		vs[i] = w.rng.Uint64()
	}
	return vs
}

func (w *window) run() {
	w.hmapW = make(map[uint64]uint64)
	w.red = swan.NewReducer(w.f, swan.Monoid[uint64]{
		Identity: func() uint64 { return 0 },
		Combine:  func(into *uint64, from uint64) { *into += from },
	})
	w.hmap = swan.NewHypermap[uint64, uint64](w.f)
	cfg := &w.r.cfg
	for w.step = 1; w.step <= w.steps; w.step++ {
		if w.step == w.fault {
			w.opFault()
		}
		if e := int64(cfg.HandoffEvery); e > 0 && w.step%e == 0 {
			w.opHandoff()
		}
		if e := int64(cfg.QcheckEvery); e > 0 && w.step%e == 0 {
			w.opQcheck()
		}
		if e := int64(cfg.ShardedEvery); e > 0 && w.step%e == 0 {
			w.opSharded()
		}
		if e := int64(cfg.ChaosEvery); e > 0 && w.step%e == 0 {
			w.opChaos()
		}
		if e := int64(cfg.SweepEvery); e > 0 && w.step%e == 0 {
			w.opSweep()
		}
		if e := int64(cfg.AuditEvery); e > 0 && w.step%e == 0 {
			w.opAudit()
		}
		switch c := w.rng.Intn(100); {
		case c < 12:
			w.opCreate()
		case c < 40:
			w.opPush()
		case c < 55:
			w.opSpawnProducer()
		case c < 72:
			w.opPop()
		case c < 82:
			w.opSpawnConsumer()
		case c < 88:
			w.opDrain()
		case c < 93:
			w.opReduce()
		case c < 97:
			w.opHypermap()
		default:
			w.opRecycle()
		}
	}
	w.finish()
}

// syncPoint quiesces the task tree and settles every deferred consumer
// verification, folding the popped values into the digest in spawn
// order. After it returns, every queue the window owns is quiescent
// (DebugChainSegments/CheckInvariants/Recycle preconditions hold).
func (w *window) syncPoint() {
	w.f.Sync()
	for _, d := range w.deferred {
		for i, v := range d.want {
			if d.got[i] != v {
				w.failf("consumer child on q%d: value %d is %d, want %d", d.qid, i, d.got[i], v)
			}
		}
		w.d8(d.got...)
	}
	w.deferred = w.deferred[:0]
}

// pick returns a random live queue, creating one if the working set is
// empty.
func (w *window) pick() *liveQ {
	if len(w.qs) == 0 {
		return w.opCreate()
	}
	return w.qs[w.rng.Intn(len(w.qs))]
}

// headroom is the largest burst that can be scheduled on lq without
// risking a permanent credit block: after every already-scheduled op
// completes, the queue holds len(model) values, so a burst of
// bound-len(model) always fits without depending on any future pop.
func (w *window) headroom(lq *liveQ) int {
	h := w.r.cfg.MaxBurst
	if lq.bound > 0 && lq.bound-len(lq.model) < h {
		h = lq.bound - len(lq.model)
	}
	return h
}

func (w *window) opCreate() *liveQ {
	if len(w.qs) >= w.r.cfg.MaxQueues {
		return w.qs[w.rng.Intn(len(w.qs))]
	}
	bound := w.r.cfg.Bounds[w.rng.Intn(len(w.r.cfg.Bounds))]
	var opts []swan.QueueOption
	if bound > 0 {
		opts = append(opts, swan.Bounded(bound))
	} else if w.rng.Intn(4) == 0 {
		// Metering for unbounded queues comes from Named. Stable names
		// keep the stats registry's rendered output bounded over long
		// runs (rows aggregate by name).
		opts = append(opts, swan.Named(fmt.Sprintf("soak.q%d", w.nq%4)))
	}
	w.nq++
	lq := &liveQ{
		id:    w.nq,
		q:     swan.NewQueueWithCapacity[uint64](w.f, w.r.cfg.SegCap, opts...),
		bound: bound,
	}
	w.qs = append(w.qs, lq)
	w.logf("create q%d bound=%d", lq.id, bound)
	w.tag("create")
	return lq
}

func (w *window) opPush() {
	lq := w.pick()
	h := w.headroom(lq)
	if h <= 0 {
		w.logf("push q%d: no credit headroom, skipped", lq.id)
		return
	}
	k := 1 + w.rng.Intn(h)
	vals := w.draw(k)
	switch w.rng.Intn(3) {
	case 0:
		for _, v := range vals {
			lq.q.Push(w.f, v)
		}
	case 1:
		pu := lq.q.BindPush(w.f)
		for _, v := range vals {
			pu.Push(v)
		}
	default:
		pu := lq.q.BindPush(w.f)
		pu.PushSlice(vals)
	}
	lq.model = append(lq.model, vals...)
	w.d8(vals...)
	w.logf("push q%d n=%d", lq.id, k)
	w.r.rep.Pushed += int64(k)
}

func (w *window) opSpawnProducer() {
	lq := w.pick()
	h := w.headroom(lq)
	if h <= 0 {
		w.logf("producer q%d: no credit headroom, skipped", lq.id)
		return
	}
	k := 1 + w.rng.Intn(h)
	vals := w.draw(k)
	slice := w.rng.Intn(2) == 0
	if lq.bound > 0 {
		// In-order-production discipline (OPERATIONS.md): on a bounded
		// queue a producer child's values are serially ordered before
		// the root's later pushes, but can land physically after them —
		// the root's values then hold the bound while the consumer
		// waits for the child's, wedging the credit cycle. The root
		// therefore stays the sole producer of bounded working-set
		// queues; the blocking producer path is exercised by the
		// dedicated handoff op, which keeps production sequential.
		pu := lq.q.BindPush(w.f)
		if slice {
			pu.PushSlice(vals)
		} else {
			for _, v := range vals {
				pu.Push(v)
			}
		}
		lq.model = append(lq.model, vals...)
		w.d8(vals...)
		w.logf("producer q%d n=%d slice=%v inline (bounded)", lq.id, k, slice)
		w.r.rep.Pushed += int64(k)
		return
	}
	q := lq.q
	w.f.Spawn(func(c *swan.Frame) {
		pu := q.BindPush(c)
		if slice {
			pu.PushSlice(vals)
		} else {
			for _, v := range vals {
				pu.Push(v)
			}
		}
	}, swan.Push(q))
	lq.model = append(lq.model, vals...)
	w.d8(vals...)
	w.logf("producer q%d n=%d slice=%v", lq.id, k, slice)
	w.r.rep.Pushed += int64(k)
}

func (w *window) opPop() {
	lq := w.pick()
	if len(lq.model) == 0 {
		w.logf("pop q%d: model empty, skipped", lq.id)
		return
	}
	k := len(lq.model)
	if k > w.r.cfg.MaxBurst {
		k = w.r.cfg.MaxBurst
	}
	k = 1 + w.rng.Intn(k)
	mode := w.rng.Intn(4)
	got := make([]uint64, 0, k)
	switch mode {
	case 0: // blocking Pop
		for i := 0; i < k; i++ {
			got = append(got, lq.q.Pop(w.f))
		}
	case 1: // Empty-guarded TryPop
		po := lq.q.BindPop(w.f)
		for len(got) < k && !po.Empty() {
			if v, ok := po.TryPop(); ok {
				got = append(got, v)
			}
		}
	case 2: // Empty-guarded PopInto
		po := lq.q.BindPop(w.f)
		buf := make([]uint64, k)
		n := 0
		for n < k && !po.Empty() {
			n += po.PopInto(buf[n:])
		}
		got = buf[:n]
	default: // Empty-guarded ReadSlice/ConsumeRead
		po := lq.q.BindPop(w.f)
		for len(got) < k && !po.Empty() {
			s := po.ReadSlice(k - len(got))
			got = append(got, s...)
			po.ConsumeRead(len(s))
		}
	}
	if len(got) != k {
		w.failf("pop q%d mode=%d: got %d values, want %d", lq.id, mode, len(got), k)
	}
	for i := range got {
		if got[i] != lq.model[i] {
			w.failf("pop q%d mode=%d: value %d is %d, want %d", lq.id, mode, i, got[i], lq.model[i])
		}
	}
	lq.model = lq.model[:copy(lq.model, lq.model[k:])]
	w.d8(got...)
	w.logf("pop q%d n=%d mode=%d", lq.id, k, mode)
	w.r.rep.Popped += int64(k)
}

func (w *window) opSpawnConsumer() {
	lq := w.pick()
	if len(lq.model) == 0 {
		w.logf("consumer q%d: model empty, skipped", lq.id)
		return
	}
	k := len(lq.model)
	if k > w.r.cfg.MaxBurst {
		k = w.r.cfg.MaxBurst
	}
	k = 1 + w.rng.Intn(k)
	want := append([]uint64(nil), lq.model[:k]...)
	lq.model = lq.model[:copy(lq.model, lq.model[k:])]
	got := make([]uint64, k)
	q := lq.q
	popInto := w.rng.Intn(2) == 0
	w.f.Spawn(func(c *swan.Frame) {
		po := q.BindPop(c)
		if popInto {
			n := 0
			for n < len(got) && !po.Empty() {
				n += po.PopInto(got[n:])
			}
		} else {
			for i := range got {
				got[i] = po.Pop()
			}
		}
	}, swan.Pop(q))
	w.deferred = append(w.deferred, deferredPop{lq.id, want, got})
	w.logf("consumer q%d n=%d popinto=%v", lq.id, k, popInto)
	w.r.rep.Popped += int64(k)
}

// drain pops the queue to permanent emptiness from the root and checks
// every value against the model. Any live producer or consumer child
// settles first — Empty blocks until the emptiness decision is valid,
// and the consumer role is acquired only after spawned pop children
// completed — so the result is deterministic.
func (w *window) drain(lq *liveQ) {
	got := make([]uint64, 0, len(lq.model))
	for !lq.q.Empty(w.f) {
		got = append(got, lq.q.Pop(w.f))
	}
	if len(got) != len(lq.model) {
		w.failf("drain q%d: got %d values, want %d", lq.id, len(got), len(lq.model))
	}
	for i := range got {
		if got[i] != lq.model[i] {
			w.failf("drain q%d: value %d is %d, want %d", lq.id, i, got[i], lq.model[i])
		}
	}
	w.d8(got...)
	lq.model = lq.model[:0]
	w.r.rep.Popped += int64(len(got))
}

func (w *window) opDrain() {
	lq := w.pick()
	n := len(lq.model)
	w.drain(lq)
	w.logf("drain q%d n=%d", lq.id, n)
}

// opRecycle drives a queue through its full lifecycle: quiesce, drain,
// Recycle (segments home to the pool, flow credits rearmed), then push
// through the recycled queue again to prove the rearm took.
func (w *window) opRecycle() {
	lq := w.pick()
	w.syncPoint()
	w.drain(lq)
	if !lq.q.CanRecycle(w.f) {
		w.failf("recycle q%d: CanRecycle false after sync+drain", lq.id)
	}
	lq.q.Recycle(w.f)
	w.r.rep.Recycles++
	w.tag("recycle")
	vals := w.draw(1 + w.rng.Intn(4))
	pu := lq.q.BindPush(w.f)
	pu.PushSlice(vals)
	lq.model = append(lq.model, vals...)
	w.d8(vals...)
	w.logf("recycle q%d rearm=%d", lq.id, len(vals))
	w.r.rep.Pushed += int64(len(vals))
}

func (w *window) opReduce() {
	vals := w.draw(1 + w.rng.Intn(4))
	for _, v := range vals {
		w.redModel += v
	}
	red := w.red
	if w.rng.Intn(2) == 0 {
		h := red.BindReduce(w.f)
		for _, v := range vals {
			h.Add(v)
		}
		w.logf("reduce n=%d inline", len(vals))
	} else {
		w.f.Spawn(func(c *swan.Frame) {
			h := red.BindReduce(c)
			for _, v := range vals {
				h.Add(v)
			}
		}, swan.Reduce(red))
		w.logf("reduce n=%d child", len(vals))
	}
}

func (w *window) opHypermap() {
	k := 1 + w.rng.Intn(4)
	keys := make([]uint64, k)
	vals := w.draw(k)
	for i := range keys {
		// A small keyspace forces first-writer-wins collisions.
		keys[i] = w.rng.Uint64() % 64
	}
	// Serial model: puts apply in program order, first writer wins.
	for i := range keys {
		if _, ok := w.hmapW[keys[i]]; !ok {
			w.hmapW[keys[i]] = vals[i]
		}
	}
	hm := w.hmap
	if w.rng.Intn(2) == 0 {
		h := hm.BindMap(w.f)
		for i := range keys {
			h.Put(keys[i], vals[i])
		}
		w.logf("hypermap n=%d inline", k)
	} else {
		w.f.Spawn(func(c *swan.Frame) {
			h := hm.BindMap(c)
			for i := range keys {
				h.Put(keys[i], vals[i])
			}
		}, swan.MapWrite(hm))
		w.logf("hypermap n=%d child", k)
	}
}

// opHandoff exercises the blocking credit path the headroom clamp
// otherwise avoids: a self-contained bounded queue whose producer child
// pushes past the bound (blocking on credits) while a consumer child
// drains it.
func (w *window) opHandoff() {
	b := 1 + w.rng.Intn(4)
	k := 2*b + w.rng.Intn(b+1)
	vals := w.draw(k)
	got := make([]uint64, k)
	var chains uint64
	w.f.Call(func(c *swan.Frame) {
		q := swan.NewQueueWithCapacity[uint64](c, w.r.cfg.SegCap, swan.Bounded(b))
		c.Spawn(func(p *swan.Frame) {
			pu := q.BindPush(p)
			for _, v := range vals {
				pu.Push(v)
			}
		}, swan.Push(q))
		c.Spawn(func(p *swan.Frame) {
			po := q.BindPop(p)
			for i := range got {
				got[i] = po.Pop()
			}
		}, swan.Pop(q))
		c.Sync()
		chains = q.DebugChainSegments(c)
	})
	*w.retired += chains
	for i := range got {
		if got[i] != vals[i] {
			w.failf("handoff: value %d is %d, want %d", i, got[i], vals[i])
		}
	}
	w.d8(vals...)
	w.logf("handoff bound=%d n=%d", b, k)
	w.r.rep.Handoffs++
}

// opChaos kills one randomly chosen live mini-pipeline: a ScopedCall
// wedge canceled mid-flight, the same wedge poisoned through Queue.Fail,
// or a deterministic deadline/shed probe. Each variant ends at a
// quiesced point with its abandoned chain segments counted into the
// retired tally, so the pool audit stays exact across the abort.
func (w *window) opChaos() {
	switch w.rng.Intn(3) {
	case 0:
		w.opCancel()
	case 1:
		w.opPoison()
	default:
		w.opDeadline()
	}
	w.r.rep.Chaos++
}

// wedge builds the canonical cancellation target inside a fresh cancel
// sub-scope — a producer child credit-parked on bounded qa, a consumer
// child parked in Pop on empty qb (the producer's unreached Push
// privilege on qb keeps the emptiness undecided) — then kills it with
// kill and returns the ScopedCall error. How far the producer got before
// the kill is scheduling-dependent, so nothing the wedge transfers is
// folded into the digest; only the kill's error identity is checked.
func (w *window) wedge(kill func(c *swan.Frame, qa *swan.Queue[uint64])) error {
	b := 1 + w.rng.Intn(3)
	vals := w.draw(4 * (b + 1))
	var chains uint64
	err := w.f.ScopedCall(func(c *swan.Frame) {
		qa := swan.NewQueueWithCapacity[uint64](c, w.r.cfg.SegCap, swan.Bounded(b))
		qb := swan.NewQueueWithCapacity[uint64](c, w.r.cfg.SegCap)
		c.Spawn(func(p *swan.Frame) {
			pu := qa.BindPush(p)
			for _, v := range vals {
				pu.Push(v) // wedges on credits at b values: nothing pops qa
			}
			qb.Push(p, 1) // never reached
		}, swan.Push(qa), swan.Push(qb))
		c.Spawn(func(p *swan.Frame) {
			qb.Pop(p) // parks: the producer never reaches its qb push
		}, swan.Pop(qb))
		kill(c, qa)
		c.Sync()
		chains = qa.DebugChainSegments(c) + qb.DebugChainSegments(c)
	})
	*w.retired += chains
	return err
}

// opCancel cancels a wedged pipeline's scope: the credit-parked producer
// and the parked consumer must both unwind promptly, the sub-scope must
// quiesce without touching the window's own scope, and ScopedCall must
// report ErrCanceled.
func (w *window) opCancel() {
	err := w.wedge(func(c *swan.Frame, _ *swan.Queue[uint64]) {
		c.CancelScope().Cancel(nil)
	})
	if !errors.Is(err, swan.ErrCanceled) {
		w.failf("cancel wedge: ScopedCall error = %v, want ErrCanceled", err)
	}
	w.tag("cancel")
	w.logf("chaos cancel wedge")
}

// opPoison poisons the wedged pipeline's bounded queue instead: the
// credit-parked producer wakes with the failure, which cancels the
// sub-scope and frees the parked consumer; ScopedCall reports the
// poison error.
func (w *window) opPoison() {
	err := w.wedge(func(_ *swan.Frame, qa *swan.Queue[uint64]) {
		qa.Fail(nil)
	})
	if !errors.Is(err, swan.ErrQueueFailed) {
		w.failf("poison wedge: ScopedCall error = %v, want ErrQueueFailed", err)
	}
	w.tag("poison")
	w.logf("chaos poison wedge")
}

// opDeadline probes the shed and deadline surface with a fully
// deterministic script: TryPush against a full bound must refuse (a
// shed), PushTimeout against it must report ErrTimeout (another shed),
// PopTimeout must time out while the only producer is credit-parked
// elsewhere, then deliver every value once the credit cycle unblocks,
// and must report ErrEmpty once the queue's emptiness is settled.
func (w *window) opDeadline() {
	const short = 2 * time.Millisecond
	const long = 10 * time.Second // generous: reached only on a bug
	vs := w.draw(3)
	var chains uint64
	w.f.Call(func(c *swan.Frame) {
		qa := swan.NewQueueWithCapacity[uint64](c, w.r.cfg.SegCap, swan.Bounded(1))
		qb := swan.NewQueueWithCapacity[uint64](c, w.r.cfg.SegCap, swan.Bounded(1))
		pua := qa.BindPush(c)
		if !pua.TryPush(vs[0]) {
			w.failf("deadline: TryPush into an empty bounded queue refused")
		}
		if pua.TryPush(vs[0]) {
			w.failf("deadline: TryPush past the bound accepted")
		}
		if err := pua.PushTimeout(vs[0], short); !errors.Is(err, swan.ErrTimeout) {
			w.failf("deadline: PushTimeout on a full queue = %v, want ErrTimeout", err)
		}
		c.Spawn(func(p *swan.Frame) {
			qa.Push(p, vs[1]) // credit-parked until the root pops vs[0]
			qb.Push(p, vs[2])
		}, swan.Push(qa), swan.Push(qb))
		pob := qb.BindPop(c)
		if _, err := pob.PopTimeout(short); !errors.Is(err, swan.ErrTimeout) {
			w.failf("deadline: PopTimeout with a parked producer = %v, want ErrTimeout", err)
		}
		poa := qa.BindPop(c)
		for i, want := range []uint64{vs[0], vs[1]} {
			got, err := poa.PopTimeout(long)
			if err != nil || got != want {
				w.failf("deadline: qa value %d = %d (err %v), want %d", i, got, err, want)
			}
		}
		if got, err := pob.PopTimeout(long); err != nil || got != vs[2] {
			w.failf("deadline: qb value = %d (err %v), want %d", got, err, vs[2])
		}
		c.Sync()
		if _, err := poa.PopTimeout(short); !errors.Is(err, swan.ErrEmpty) {
			w.failf("deadline: PopTimeout on settled emptiness = %v, want ErrEmpty", err)
		}
		chains = qa.DebugChainSegments(c) + qb.DebugChainSegments(c)
	})
	*w.retired += chains
	w.d8(vs...)
	w.tag("deadline")
	w.logf("chaos deadline probe")
}

// opQcheck embeds one randomly generated qcheck program as a child of
// the window's root and checks it against its serial-elision oracle.
func (w *window) opQcheck() {
	seed := w.rng.Uint64()
	queues := 1 + w.rng.Intn(w.r.cfg.QcheckQueues)
	segCap := []int{1, 8, 64}[w.rng.Intn(3)]
	prog := qcheck.GenerateMulti(seed, queues)
	out := prog.RunOn(w.f, segCap)
	*w.retired += out.ChainSegments
	if !qcheck.Equal(out.Consumed, prog.Oracle) {
		w.failf("qcheck program seed=%d queues=%d segcap=%d diverged from its serial elision\n%s",
			seed, queues, segCap, prog.OpLog())
	}
	w.tag("qcheck")
	w.d8(seed, uint64(prog.Values))
	w.logf("qcheck seed=%d queues=%d segcap=%d values=%d", seed, queues, segCap, prog.Values)
	w.r.rep.Qchecks++
}

// opSharded runs one randomly generated sharded fan-out as a child of
// the window's root and checks the egress against the serial elision.
func (w *window) opSharded() {
	seed := w.rng.Uint64()
	sp := qcheck.GenerateSharded(seed)
	ok, chains := sp.RunOn(w.f)
	*w.retired += chains
	if !ok {
		w.failf("sharded program seed=%d values=%d shards=%d bound=%d segcap=%d diverged from its serial elision",
			seed, sp.Values, sp.Shards, sp.Bound, sp.SegCap)
	}
	w.tag("sharded")
	w.d8(seed, uint64(sp.Values), uint64(sp.Shards))
	w.logf("sharded seed=%d values=%d shards=%d bound=%d", seed, sp.Values, sp.Shards, sp.Bound)
	w.r.rep.Shardeds++
}

// opSweep syncs and walks the §4.4 invariants of every live queue.
func (w *window) opSweep() {
	w.syncPoint()
	for _, lq := range w.qs {
		if vs := lq.q.CheckInvariants(w.f); len(vs) > 0 {
			w.failf("invariant sweep q%d: %s", lq.id, vs[0].String())
		}
	}
	w.logf("sweep queues=%d", len(w.qs))
	w.r.rep.Sweeps++
}

// opAudit checks segment conservation exactly: every segment ever
// allocated is in the pool, dropped, retired with a dead queue, or in a
// live queue's chain. A leak (segment lost without being retired) or a
// double-recycle (pool gains a segment the equation doesn't source)
// breaks the balance at the next stripe.
func (w *window) opAudit() {
	w.syncPoint()
	var live uint64
	for _, lq := range w.qs {
		live += lq.q.DebugChainSegments(w.f)
	}
	allocs := w.prov.SegmentAllocs()
	pooled := uint64(w.prov.PooledSegments())
	dropped := w.prov.DroppedSegments()
	if allocs != pooled+dropped+*w.retired+live {
		w.failf("pool audit: allocs=%d but pooled=%d + dropped=%d + retired=%d + live=%d = %d",
			allocs, pooled, dropped, *w.retired, live,
			pooled+dropped+*w.retired+live)
	}
	w.logf("audit allocs=%d pooled=%d dropped=%d retired=%d live=%d",
		allocs, pooled, dropped, *w.retired, live)
	if st := w.f.Runtime().Stats(); st.Spawns != st.TaskAllocs+st.TaskReuses {
		w.failf("task-record audit: spawns=%d but allocs=%d + reuses=%d = %d",
			st.Spawns, st.TaskAllocs, st.TaskReuses, st.TaskAllocs+st.TaskReuses)
	}
	for _, qs := range w.prov.QueueStats() {
		if qs.ConsumerWakes > qs.ConsumerBlocks || qs.ProducerWakes > qs.ProducerBlocks {
			w.failf("wake audit: queue %s woke a consumer %d times for %d sleeps, a producer %d times for %d",
				qs.Name, qs.ConsumerWakes, qs.ConsumerBlocks, qs.ProducerWakes, qs.ProducerBlocks)
		}
	}
	w.r.rep.Audits++
}

// opFault injects the deliberate bug. FaultValue plants a queue holding
// a value no model records; the window-end drain compare must catch it.
// FaultCancel cancels the window's root scope and immediately drives a
// blocking Pop into it: the pop must unwind (a canceled scope may not
// decide emptiness), Run must return the cancellation, and runWindow
// must convert that into a window failure — deterministically at this
// step.
func (w *window) opFault() {
	if w.r.opt.FaultKind == FaultCancel {
		w.logf("fault: window scope canceled")
		w.f.CancelScope().Cancel(nil)
		q := swan.NewQueueWithCapacity[uint64](w.f, w.r.cfg.SegCap)
		q.Pop(w.f) // unwinds with the cancellation
		w.failf("fault: blocking Pop on a canceled scope returned")
		return
	}
	q := swan.NewQueueWithCapacity[uint64](w.f, w.r.cfg.SegCap)
	q.Push(w.f, 0xfa017ed)
	w.nq++
	w.qs = append(w.qs, &liveQ{id: w.nq, q: q})
	w.logf("fault: unmodeled value injected on fresh q%d", w.nq)
}

// finish settles the window: quiesce, check the hyperobject oracles,
// sweep, drain and retire every queue, and run a closing audit with an
// empty working set — the strictest form of the balance equation.
func (w *window) finish() {
	w.syncPoint()
	if got := w.red.Value(w.f); got != w.redModel {
		w.failf("reducer fold: got %d, want %d", got, w.redModel)
	}
	w.d8(w.redModel)
	if got, want := w.hmap.Len(w.f), len(w.hmapW); got != want {
		w.failf("hypermap size: got %d keys, want %d", got, want)
	}
	keys := make([]uint64, 0, len(w.hmapW))
	for k := range w.hmapW {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		v, ok := w.hmap.Get(w.f, k)
		if !ok || v != w.hmapW[k] {
			w.failf("hypermap key %d: got %d (present=%v), want %d", k, v, ok, w.hmapW[k])
		}
		w.d8(k, v)
	}
	for _, lq := range w.qs {
		if vs := lq.q.CheckInvariants(w.f); len(vs) > 0 {
			w.failf("final sweep q%d: %s", lq.id, vs[0].String())
		}
		w.drain(lq)
		if w.rng.Intn(2) == 0 {
			// Recycle returns the whole chain to the pool; the recycled
			// queue keeps exactly one fresh segment, which dies with it.
			lq.q.Recycle(w.f)
			w.r.rep.Recycles++
			*w.retired++
		} else {
			*w.retired += lq.q.DebugChainSegments(w.f)
		}
	}
	w.qs = nil
	w.opAudit()
	w.r.rep.Sweeps++
}
