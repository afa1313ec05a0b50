package pipeline

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestPthreadsIdentityOrder(t *testing.T) {
	const n = 500
	var got []int
	RunPthreads(
		func(emit func(any)) {
			for i := 0; i < n; i++ {
				emit(i)
			}
		},
		[]Stage{
			{Name: "work", Workers: 8, Fn: func(d any, emit func(any)) { emit(d.(int) * 2) }},
			{Name: "sink", Ordered: true, Fn: func(d any, emit func(any)) { got = append(got, d.(int)) }},
		},
		16,
	)
	if len(got) != n {
		t.Fatalf("sink saw %d items, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i*2 {
			t.Fatalf("got[%d] = %d, want %d (order broken)", i, v, i*2)
		}
	}
}

func TestPthreadsFanOutOrdered(t *testing.T) {
	// Each input k expands into k+1 children (variable fan-out, like
	// dedup's FragmentRefine); order at the sink must still be the
	// depth-first serial order.
	const n = 60
	var got []int
	var want []int
	for k := 0; k < n; k++ {
		for j := 0; j <= k; j++ {
			want = append(want, k*1000+j)
		}
	}
	RunPthreads(
		func(emit func(any)) {
			for i := 0; i < n; i++ {
				emit(i)
			}
		},
		[]Stage{
			{Name: "refine", Workers: 8, Fn: func(d any, emit func(any)) {
				k := d.(int)
				for j := 0; j <= k; j++ {
					emit(k*1000 + j)
				}
			}},
			{Name: "work", Workers: 8, Fn: func(d any, emit func(any)) { emit(d) }},
			{Name: "sink", Ordered: true, Fn: func(d any, emit func(any)) { got = append(got, d.(int)) }},
		},
		16,
	)
	if len(got) != len(want) {
		t.Fatalf("sink saw %d items, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestPthreadsZeroFanOut(t *testing.T) {
	// Stages may emit nothing for an item (dedup skips Compress for
	// duplicates); ordering must survive the holes.
	const n = 100
	var got []int
	RunPthreads(
		func(emit func(any)) {
			for i := 0; i < n; i++ {
				emit(i)
			}
		},
		[]Stage{
			{Name: "filter", Workers: 6, Fn: func(d any, emit func(any)) {
				if d.(int)%3 == 0 {
					emit(d)
				}
			}},
			{Name: "sink", Ordered: true, Fn: func(d any, emit func(any)) { got = append(got, d.(int)) }},
		},
		8,
	)
	for i, v := range got {
		if v != i*3 {
			t.Fatalf("got[%d] = %d, want %d", i, v, i*3)
		}
	}
	if len(got) != (n+2)/3 {
		t.Fatalf("sink saw %d items, want %d", len(got), (n+2)/3)
	}
}

func TestPthreadsParallelismUsed(t *testing.T) {
	var cur, peak atomic.Int64
	gate := make(chan struct{})
	var once sync.Once
	RunPthreads(
		func(emit func(any)) {
			for i := 0; i < 16; i++ {
				emit(i)
			}
		},
		[]Stage{
			{Name: "work", Workers: 4, Fn: func(d any, emit func(any)) {
				c := cur.Add(1)
				for {
					p := peak.Load()
					if c <= p || peak.CompareAndSwap(p, c) {
						break
					}
				}
				if c >= 2 {
					once.Do(func() { close(gate) })
				}
				<-gate // hold until at least two workers overlap
				cur.Add(-1)
				emit(d)
			}},
		},
		16,
	)
	if peak.Load() < 2 {
		t.Fatalf("peak stage concurrency %d; workers not parallel", peak.Load())
	}
}

func TestPthreadsMultipleOrderedStages(t *testing.T) {
	const n = 120
	var mid, got []int
	RunPthreads(
		func(emit func(any)) {
			for i := 0; i < n; i++ {
				emit(i)
			}
		},
		[]Stage{
			{Name: "par1", Workers: 5, Fn: func(d any, emit func(any)) { emit(d) }},
			{Name: "ord1", Ordered: true, Fn: func(d any, emit func(any)) {
				mid = append(mid, d.(int))
				emit(d)
			}},
			{Name: "par2", Workers: 5, Fn: func(d any, emit func(any)) { emit(d) }},
			{Name: "ord2", Ordered: true, Fn: func(d any, emit func(any)) { got = append(got, d.(int)) }},
		},
		8,
	)
	for i := 0; i < n; i++ {
		if mid[i] != i || got[i] != i {
			t.Fatalf("order broken: mid[%d]=%d got[%d]=%d", i, mid[i], i, got[i])
		}
	}
}

func TestOrdererDirect(t *testing.T) {
	// Drive the orderer with records arriving in a hostile order.
	o := newOrderer()
	var got []int
	d := func(v any) { got = append(got, v.(int)) }
	// Stream of 2 items, item 0 expands to children {10, 11}, item 1 to {20}.
	o.insert(rec{path: []int32{1, 0}, payload: 20}, d)
	o.insert(rec{path: []int32{1}, marker: true, count: 1}, d)
	o.insert(rec{path: []int32{0, 1}, payload: 11}, d)
	o.insert(rec{path: nil, marker: true, count: 2}, d)
	if len(got) != 0 {
		t.Fatalf("premature delivery: %v", got)
	}
	o.insert(rec{path: []int32{0, 0}, payload: 10}, d)
	o.insert(rec{path: []int32{0}, marker: true, count: 2}, d)
	want := []int{10, 11, 20}
	if len(got) != 3 {
		t.Fatalf("delivered %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivered %v, want %v", got, want)
		}
	}
}

func TestTBBIdentityOrder(t *testing.T) {
	const n = 400
	i := 0
	var got []int
	RunTBB(
		func() any {
			if i >= n {
				return nil
			}
			i++
			return i - 1
		},
		[]Filter{
			{Name: "double", Mode: Parallel, Fn: func(d any) any { return d.(int) * 2 }},
			{Name: "out", Mode: SerialInOrder, Fn: func(d any) any {
				got = append(got, d.(int))
				return d
			}},
		},
		8, 16,
	)
	if len(got) != n {
		t.Fatalf("output saw %d, want %d", len(got), n)
	}
	for k, v := range got {
		if v != k*2 {
			t.Fatalf("got[%d] = %d, want %d", k, v, k*2)
		}
	}
}

func TestTBBTokenLimit(t *testing.T) {
	const tokens = 3
	var inflight, peak atomic.Int64
	i := 0
	RunTBB(
		func() any {
			if i >= 50 {
				return nil
			}
			i++
			inflight.Add(1)
			return i
		},
		[]Filter{
			{Name: "track", Mode: Parallel, Fn: func(d any) any {
				c := inflight.Load()
				for {
					p := peak.Load()
					if c <= p || peak.CompareAndSwap(p, c) {
						break
					}
				}
				return d
			}},
			{Name: "done", Mode: Parallel, Fn: func(d any) any {
				inflight.Add(-1)
				return d
			}},
		},
		8, tokens,
	)
	if peak.Load() > tokens {
		t.Fatalf("in-flight peak %d exceeds token cap %d", peak.Load(), tokens)
	}
}

func TestTBBEmptyInput(t *testing.T) {
	ran := false
	RunTBB(func() any { return nil },
		[]Filter{{Name: "x", Mode: Parallel, Fn: func(d any) any { ran = true; return d }}},
		4, 4)
	if ran {
		t.Fatal("filter ran with empty input")
	}
}

func TestPthreadsEmptySource(t *testing.T) {
	var n int
	RunPthreads(func(emit func(any)) {},
		[]Stage{{Name: "sink", Ordered: true, Fn: func(d any, emit func(any)) { n++ }}}, 4)
	if n != 0 {
		t.Fatalf("sink ran %d times on empty source", n)
	}
}

func TestTBBMultipleSerialInOrderFilters(t *testing.T) {
	const n = 150
	i := 0
	var first, second []int
	RunTBB(
		func() any {
			if i >= n {
				return nil
			}
			i++
			return i - 1
		},
		[]Filter{
			{Name: "s1", Mode: SerialInOrder, Fn: func(d any) any {
				first = append(first, d.(int))
				return d
			}},
			{Name: "par", Mode: Parallel, Fn: func(d any) any { return d.(int) + 1000 }},
			{Name: "s2", Mode: SerialInOrder, Fn: func(d any) any {
				second = append(second, d.(int))
				return d
			}},
		},
		6, 12,
	)
	for k := 0; k < n; k++ {
		if first[k] != k {
			t.Fatalf("first[%d] = %d", k, first[k])
		}
		if second[k] != k+1000 {
			t.Fatalf("second[%d] = %d", k, second[k])
		}
	}
}

func TestPthreadsDefaultWorkerCount(t *testing.T) {
	// Workers: 0 must default to one worker, not zero.
	var n atomic.Int64
	RunPthreads(
		func(emit func(any)) { emit(1); emit(2) },
		[]Stage{{Name: "w", Workers: 0, Fn: func(d any, emit func(any)) { n.Add(1) }}},
		2,
	)
	if n.Load() != 2 {
		t.Fatalf("stage with Workers=0 processed %d items", n.Load())
	}
}

func TestPthreadsDeepFanOutChain(t *testing.T) {
	// Two consecutive fan-out stages: hierarchical sequencing must hold
	// through depth-3 paths.
	var got []int
	RunPthreads(
		func(emit func(any)) {
			for i := 0; i < 6; i++ {
				emit(i)
			}
		},
		[]Stage{
			{Name: "fan1", Workers: 4, Fn: func(d any, emit func(any)) {
				for j := 0; j < 3; j++ {
					emit(d.(int)*10 + j)
				}
			}},
			{Name: "fan2", Workers: 4, Fn: func(d any, emit func(any)) {
				for j := 0; j < 2; j++ {
					emit(d.(int)*10 + j)
				}
			}},
			{Name: "sink", Ordered: true, Fn: func(d any, emit func(any)) {
				got = append(got, d.(int))
			}},
		},
		8,
	)
	if len(got) != 6*3*2 {
		t.Fatalf("sink saw %d items, want 36", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("order broken at %d: %v", i, got)
		}
	}
}
