package sched

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// policies spans both substrates: every cancellation behavior must be
// identical under the work-stealing pool and the goroutine baseline.
var policies = []SpawnPolicy{PolicySteal, PolicyGoroutine}

// closeWaker is the Waker of a test task that parks on a channel.
type closeWaker chan struct{}

func (c closeWaker) WakeParked() { close(c) }

// TestRunReturnsNilClean checks the new Run signature's base case: a
// clean run returns nil.
func TestRunReturnsNilClean(t *testing.T) {
	for _, policy := range policies {
		t.Run(policy.String(), func(t *testing.T) {
			if err := NewWithPolicy(2, policy).Run(func(f *Frame) {
				f.Spawn(func(*Frame) {})
				f.Sync()
			}); err != nil {
				t.Fatalf("clean Run returned %v, want nil", err)
			}
		})
	}
}

// TestRunSelfCancel checks that a body canceling its own scope makes Run
// return the cause while the body itself runs to completion.
func TestRunSelfCancel(t *testing.T) {
	cause := errors.New("enough")
	for _, policy := range policies {
		t.Run(policy.String(), func(t *testing.T) {
			var finished atomic.Bool
			err := NewWithPolicy(2, policy).Run(func(f *Frame) {
				f.CancelScope().Cancel(cause)
				finished.Store(true)
			})
			if !errors.Is(err, cause) {
				t.Fatalf("Run returned %v, want %v", err, cause)
			}
			if !finished.Load() {
				t.Fatal("cancellation interrupted the non-blocking body")
			}
		})
	}
}

// TestRunCancelNilIsErrCanceled checks the default cause.
func TestRunCancelNilIsErrCanceled(t *testing.T) {
	err := New(2).Run(func(f *Frame) { f.CancelScope().Cancel(nil) })
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("Run returned %v, want ErrCanceled", err)
	}
}

// TestRuntimeCancelTerminal checks the shutdown path: Runtime.Cancel
// condemns the runtime, so a later Run skips its body entirely and
// returns the stored cause.
func TestRuntimeCancelTerminal(t *testing.T) {
	cause := errors.New("shutdown")
	for _, policy := range policies {
		t.Run(policy.String(), func(t *testing.T) {
			rt := NewWithPolicy(2, policy)
			rt.Cancel(cause)
			var ran atomic.Bool
			err := rt.Run(func(f *Frame) { ran.Store(true) })
			if !errors.Is(err, cause) {
				t.Fatalf("Run after Runtime.Cancel returned %v, want %v", err, cause)
			}
			if ran.Load() {
				t.Fatal("body of a born-canceled Run executed")
			}
			if s := rt.Stats(); s.CanceledRuns != 1 {
				t.Fatalf("CanceledRuns = %d, want 1", s.CanceledRuns)
			}
		})
	}
}

// TestRuntimeCancelWakesInFlightRun checks that Runtime.Cancel reaches a
// Run already parked: a task blocked in a scope-aware wait wakes with
// the cause and the Run quiesces in bounded time.
func TestRuntimeCancelWakesInFlightRun(t *testing.T) {
	for _, policy := range policies {
		t.Run(policy.String(), func(t *testing.T) {
			rt := NewWithPolicy(2, policy)
			parked := make(chan struct{})
			done := make(chan error, 1)
			go func() {
				done <- rt.Run(func(f *Frame) {
					ch := make(closeWaker)
					f.Park(ch, func() {
						close(parked)
						<-ch
					})
				})
			}()
			<-parked
			rt.Cancel(nil)
			select {
			case err := <-done:
				if !errors.Is(err, ErrCanceled) {
					t.Fatalf("Run returned %v, want ErrCanceled", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("canceled Run did not quiesce")
			}
		})
	}
}

// TestPanicCancelsSiblings checks the upgraded panic contract: a task
// panic cancels the run's scope (siblings parked in scope-aware waits
// wake with a *PanicError cause, later siblings may be skipped), the
// original panic value is re-raised out of Run, and nothing hangs.
func TestPanicCancelsSiblings(t *testing.T) {
	for _, policy := range policies {
		t.Run(policy.String(), func(t *testing.T) {
			var parkedSawCause error
			var parkedRan atomic.Bool
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("task panic did not propagate out of Run")
				}
				if r != "boom" {
					t.Fatalf("recovered %v, want the original panic value", r)
				}
				if parkedRan.Load() {
					var pe *PanicError
					if !errors.As(parkedSawCause, &pe) || pe.Value != "boom" {
						t.Fatalf("parked sibling saw cause %v, want *PanicError{boom}", parkedSawCause)
					}
				}
			}()
			NewWithPolicy(4, policy).Run(func(f *Frame) {
				sc := f.CancelScope()
				f.Spawn(func(c *Frame) {
					// Parks until the sibling's panic cancels the scope. If
					// the panic lands first this task is skipped instead —
					// either way the run quiesces.
					parkedRan.Store(true)
					ch := make(closeWaker)
					c.Park(ch, func() { <-ch })
					parkedSawCause = sc.Err()
				})
				f.Spawn(func(c *Frame) { panic("boom") })
				f.Sync()
			})
		})
	}
}

// TestPanicCountsInStats checks the swan_sched_panics_total feed.
func TestPanicCountsInStats(t *testing.T) {
	rt := New(2)
	func() {
		defer func() { recover() }()
		rt.Run(func(f *Frame) {
			f.Spawn(func(*Frame) { panic("counted") })
			f.Sync()
		})
	}()
	s := rt.Stats()
	if s.TaskPanics != 1 {
		t.Fatalf("TaskPanics = %d, want 1", s.TaskPanics)
	}
	if s.CanceledRuns != 1 {
		t.Fatalf("CanceledRuns = %d, want 1", s.CanceledRuns)
	}
}

// TestScopedCallContainment checks that ScopedCall sub-scopes contain
// both explicit cancellation and panics: the caller's scope stays live
// and Run returns nil.
func TestScopedCallContainment(t *testing.T) {
	inner := errors.New("inner")
	for _, policy := range policies {
		t.Run(policy.String(), func(t *testing.T) {
			err := NewWithPolicy(2, policy).Run(func(f *Frame) {
				if got := f.ScopedCall(func(c *Frame) {
					c.CancelScope().Cancel(inner)
				}); !errors.Is(got, inner) {
					t.Errorf("canceled ScopedCall returned %v, want %v", got, inner)
				}
				if f.CancelScope().Canceled() {
					t.Error("sub-scope cancel leaked into the caller's scope")
				}
				got := f.ScopedCall(func(c *Frame) {
					c.Spawn(func(*Frame) { panic("sub") })
					c.Sync()
				})
				var pe *PanicError
				if !errors.As(got, &pe) || pe.Value != "sub" {
					t.Errorf("panicking ScopedCall returned %v, want *PanicError{sub}", got)
				}
				if f.CancelScope().Canceled() {
					t.Error("sub-scope panic leaked into the caller's scope")
				}
				if got := f.ScopedCall(func(c *Frame) {}); got != nil {
					t.Errorf("clean ScopedCall returned %v, want nil", got)
				}
			})
			if err != nil {
				t.Fatalf("Run returned %v, want nil (sub-scopes contained)", err)
			}
		})
	}
}

// TestScopedCallInheritsParentCancel checks downward propagation: a
// sub-scope born under a canceled parent is canceled with the same
// cause.
func TestScopedCallInheritsParentCancel(t *testing.T) {
	cause := errors.New("parent gone")
	err := New(2).Run(func(f *Frame) {
		f.CancelScope().Cancel(cause)
		var ran atomic.Bool
		if got := f.ScopedCall(func(c *Frame) { ran.Store(true) }); !errors.Is(got, cause) {
			t.Errorf("ScopedCall under canceled parent returned %v, want %v", got, cause)
		}
		if ran.Load() {
			t.Error("body of a born-canceled ScopedCall executed")
		}
	})
	if !errors.Is(err, cause) {
		t.Fatalf("Run returned %v, want %v", err, cause)
	}
}
