package core

import (
	"testing"
	"unsafe"

	"repro/internal/sched"
)

// TestSegmentLayout pins the two-line header: the producer's fields fill
// the first 64 bytes and the consumer's the second, so neither side's
// per-element writes land on the line the other side reads.
func TestSegmentLayout(t *testing.T) {
	var s segment[int]
	if got := unsafe.Sizeof(s); got != 128 {
		t.Errorf("segment header is %d bytes, want 128", got)
	}
	if got := unsafe.Offsetof(s.head); got != 64 {
		t.Errorf("consumer line starts at byte %d, want 64", got)
	}
}

// TestIndexReloads counts the shared-index loads of one lap at
// Workers=1: 256 values pushed into a capacity-256 segment, then
// drained. With each side reading its cached copy of the other's index,
// the producer never needs head (the lap fits) and the consumer reloads
// tail about once, where reading the shared index on every element costs
// 512 of each. The emptiness check after the drain is not counted: it
// reloads tail on each of its probes.
// The counters are kept because TestMain enables debug checks.
func TestIndexReloads(t *testing.T) {
	const n = 256
	laps := []struct {
		name string
		lap  func(f *sched.Frame, q *Queue[int])
	}{
		{"scalar", func(f *sched.Frame, q *Queue[int]) {
			for i := 0; i < n; i++ {
				q.Push(f, i)
			}
			for i := 0; i < n; i++ {
				if v := q.Pop(f); v != i {
					t.Fatalf("Pop = %d, want %d", v, i)
				}
			}
		}},
		{"slice", func(f *sched.Frame, q *Queue[int]) {
			vs := make([]int, n)
			for i := range vs {
				vs[i] = i
			}
			push, pop := q.BindPush(f), q.BindPop(f)
			push.PushSlice(vs)
			dst := make([]int, n)
			if k := pop.PopInto(dst); k != n || dst[n-1] != n-1 {
				t.Fatalf("PopInto moved %d values, last %d; want %d, last %d", k, dst[n-1], n, n-1)
			}
		}},
	}
	for _, l := range laps {
		t.Run(l.name, func(t *testing.T) {
			sched.New(1).Run(func(f *sched.Frame) {
				q := NewWithCapacity[int](f, n)
				seg := q.headView.Head
				l.lap(f, q)
				if seg.headLoads > 1 || seg.tailLoads > 2 {
					t.Errorf("lap loaded head %d times and tail %d times, want at most 1 and 2", seg.headLoads, seg.tailLoads)
				}
				if !q.Empty(f) {
					t.Fatal("queue not empty after the drain")
				}
			})
		})
	}
}
