package core

import (
	"runtime"
	"testing"

	"repro/internal/sched"
)

// modes are the two ways a mode sweep runs each case, and a case must
// come out the same under both. "steal" gives the case a runtime of its
// own. "goroutine" shares the runtime's workers with a second Run, issued
// from a goroutine of its own, that keeps spawning unrelated task waves
// until the case ends, so the case meets steal schedules and run-token
// hand-offs it does not control.
var modes = []string{"steal", "goroutine"}

// newRuntime returns the runtime for one case of a mode sweep; the
// "goroutine" mode's background Run stops when the case ends, or at once
// if the runtime is canceled.
func newRuntime(t *testing.T, workers int, mode string) *sched.Runtime {
	rt := sched.New(workers)
	if mode == "goroutine" {
		stop, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if rt.Run(func(f *sched.Frame) {
					f.SpawnN(8, func(*sched.Frame, int) { runtime.Gosched() })
				}) != nil {
					return
				}
			}
		}()
		t.Cleanup(func() { close(stop); <-done })
	}
	return rt
}

// Modes and NewRuntime hand the mode sweep to the external core_test
// package, so both test packages sweep the same modes.
var (
	Modes      = modes
	NewRuntime = newRuntime
)
