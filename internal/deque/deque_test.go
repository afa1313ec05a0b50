package deque

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestPushPopLIFO(t *testing.T) {
	d := New[int](4)
	for i := 0; i < 100; i++ {
		d.Push(i)
	}
	for i := 99; i >= 0; i-- {
		v, ok := d.Pop()
		if !ok || v != i {
			t.Fatalf("Pop = %d,%v; want %d,true", v, ok, i)
		}
	}
	if _, ok := d.Pop(); ok {
		t.Fatal("Pop on empty deque returned ok")
	}
}

func TestStealFIFO(t *testing.T) {
	d := New[int](4)
	for i := 0; i < 100; i++ {
		d.Push(i)
	}
	for i := 0; i < 100; i++ {
		v, ok := d.Steal()
		if !ok || v != i {
			t.Fatalf("Steal = %d,%v; want %d,true", v, ok, i)
		}
	}
	if _, ok := d.Steal(); ok {
		t.Fatal("Steal on empty deque returned ok")
	}
}

func TestPushBatchOrder(t *testing.T) {
	d := New[int](8)
	d.Push(-1)
	vals := make([]int, 100)
	batch := make([]*int, len(vals))
	for i := range vals {
		vals[i] = i
		batch[i] = &vals[i]
	}
	d.PushBatch(batch) // forces grows mid-batch
	d.PushBatch(nil)   // empty batch is a no-op
	if d.Len() != 101 {
		t.Fatalf("Len = %d, want 101", d.Len())
	}
	// FIFO steal sees the pre-batch value, then the batch in order.
	if v, ok := d.Steal(); !ok || v != -1 {
		t.Fatalf("Steal = %d,%v; want -1,true", v, ok)
	}
	for i := 0; i < 50; i++ {
		if v, ok := d.Steal(); !ok || v != i {
			t.Fatalf("Steal = %d,%v; want %d,true", v, ok, i)
		}
	}
	// LIFO pop sees the batch tail first.
	for i := 99; i >= 50; i-- {
		if v, ok := d.Pop(); !ok || v != i {
			t.Fatalf("Pop = %d,%v; want %d,true", v, ok, i)
		}
	}
	if _, ok := d.Pop(); ok {
		t.Fatal("Pop on drained deque returned ok")
	}
}

// TestPushBatchConcurrentSteals has thieves hammer the deque while the
// owner publishes batches: every value must be seen exactly once.
func TestPushBatchConcurrentSteals(t *testing.T) {
	d := New[int](8)
	const batches, per = 200, 16
	var seen [batches * per]atomic.Int32
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if v, ok := d.Steal(); ok {
					seen[v].Add(1)
					continue
				}
				select {
				case <-stop:
					if v, ok := d.Steal(); ok {
						seen[v].Add(1)
						continue
					}
					return
				default:
				}
			}
		}()
	}
	vals := make([]int, batches*per)
	batch := make([]*int, per)
	for b := 0; b < batches; b++ {
		for i := range batch {
			vals[b*per+i] = b*per + i
			batch[i] = &vals[b*per+i]
		}
		d.PushBatch(batch)
	}
	for d.Len() > 0 {
		if v, ok := d.Pop(); ok {
			seen[v].Add(1)
		}
	}
	close(stop)
	wg.Wait()
	for i := range seen {
		if n := seen[i].Load(); n != 1 {
			t.Fatalf("value %d seen %d times, want exactly once", i, n)
		}
	}
}

func TestGrowPreservesOrder(t *testing.T) {
	d := New[int](8)
	const n = 10000 // forces many grows
	for i := 0; i < n; i++ {
		d.Push(i)
	}
	if d.Len() != n {
		t.Fatalf("Len = %d, want %d", d.Len(), n)
	}
	for i := 0; i < n/2; i++ {
		if v, ok := d.Steal(); !ok || v != i {
			t.Fatalf("Steal = %d,%v; want %d", v, ok, i)
		}
	}
	for i := n - 1; i >= n/2; i-- {
		if v, ok := d.Pop(); !ok || v != i {
			t.Fatalf("Pop = %d,%v; want %d", v, ok, i)
		}
	}
}

func TestInterleavedPushPop(t *testing.T) {
	d := New[int](4)
	for round := 0; round < 50; round++ {
		for i := 0; i < round; i++ {
			d.Push(i)
		}
		for i := round - 1; i >= 0; i-- {
			if v, ok := d.Pop(); !ok || v != i {
				t.Fatalf("round %d: Pop = %d,%v; want %d", round, v, ok, i)
			}
		}
	}
}

// TestConcurrentStealersNoLossNoDup is the core linearizability check:
// one owner pushes N distinct values and pops some; thieves steal the
// rest. Every value must be consumed exactly once.
func TestConcurrentStealersNoLossNoDup(t *testing.T) {
	const n = 100000
	const thieves = 4
	d := New[int](8)
	var seen [n]atomic.Int32
	var consumed atomic.Int64

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < thieves; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if v, ok := d.Steal(); ok {
					seen[v].Add(1)
					consumed.Add(1)
				} else {
					select {
					case <-stop:
						// Drain whatever is left after the owner quit.
						for {
							v, ok := d.Steal()
							if !ok {
								return
							}
							seen[v].Add(1)
							consumed.Add(1)
						}
					default:
					}
				}
			}
		}()
	}

	// Owner: push all values, popping a few interleaved.
	for i := 0; i < n; i++ {
		d.Push(i)
		if i%3 == 0 {
			if v, ok := d.Pop(); ok {
				seen[v].Add(1)
				consumed.Add(1)
			}
		}
	}
	// Owner drains its side too.
	for {
		v, ok := d.Pop()
		if !ok {
			break
		}
		seen[v].Add(1)
		consumed.Add(1)
	}
	close(stop)
	wg.Wait()

	// Final drain from this goroutine (now the only accessor).
	for {
		v, ok := d.Steal()
		if !ok {
			break
		}
		seen[v].Add(1)
		consumed.Add(1)
	}

	if got := consumed.Load(); got != n {
		t.Fatalf("consumed %d values, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		if c := seen[i].Load(); c != 1 {
			t.Fatalf("value %d consumed %d times", i, c)
		}
	}
}

func TestLenEstimate(t *testing.T) {
	d := New[string](4)
	if d.Len() != 0 {
		t.Fatalf("empty Len = %d", d.Len())
	}
	d.Push("a")
	d.Push("b")
	if d.Len() != 2 {
		t.Fatalf("Len = %d, want 2", d.Len())
	}
	d.Steal()
	if d.Len() != 1 {
		t.Fatalf("Len after steal = %d, want 1", d.Len())
	}
}

func TestPopStealSingleElementRace(t *testing.T) {
	// Repeatedly race one owner Pop against one thief Steal over a
	// single element; exactly one must win each round.
	for round := 0; round < 2000; round++ {
		d := New[int](4)
		d.Push(round)
		var wins atomic.Int32
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			if _, ok := d.Pop(); ok {
				wins.Add(1)
			}
		}()
		go func() {
			defer wg.Done()
			if _, ok := d.Steal(); ok {
				wins.Add(1)
			}
		}()
		wg.Wait()
		if wins.Load() != 1 {
			t.Fatalf("round %d: %d winners for 1 element", round, wins.Load())
		}
	}
}

func TestStealBatchTakesHalfOldestFirst(t *testing.T) {
	d := New[int](8)
	for i := 0; i < 10; i++ {
		d.Push(i)
	}
	buf := make([]*int, 16)
	// Half of 10 rounded up is 5, oldest first.
	if got := d.StealBatch(buf); got != 5 {
		t.Fatalf("StealBatch = %d, want 5", got)
	}
	for i := 0; i < 5; i++ {
		if *buf[i] != i {
			t.Fatalf("buf[%d] = %d, want %d", i, *buf[i], i)
		}
	}
	// The remainder keeps its order for the owner.
	for i := 9; i >= 5; i-- {
		if v, ok := d.Pop(); !ok || v != i {
			t.Fatalf("Pop = %d,%v; want %d,true", v, ok, i)
		}
	}
	// A short buffer caps the batch; an empty deque yields zero.
	d.Push(1)
	d.Push(2)
	d.Push(3)
	if got := d.StealBatch(buf[:1]); got != 1 || *buf[0] != 1 {
		t.Fatalf("StealBatch(short buf) = %d (buf[0]=%d), want 1 (1)", got, *buf[0])
	}
	d.Pop()
	d.Pop()
	if got := d.StealBatch(buf); got != 0 {
		t.Fatalf("StealBatch on empty = %d, want 0", got)
	}
	// A single element is still taken ((1+1)/2 = 1).
	d.Push(7)
	if got := d.StealBatch(buf); got != 1 || *buf[0] != 7 {
		t.Fatalf("StealBatch(single) = %d (buf[0]=%d), want 1 (7)", got, *buf[0])
	}
}

// TestStealBatchConcurrentNoLossNoDup races an owner (pushing and
// popping) against batch-stealing thieves: every value must be consumed
// exactly once. This is the double-take hazard StealBatch's per-element
// CAS exists to prevent.
func TestStealBatchConcurrentNoLossNoDup(t *testing.T) {
	const n = 100000
	const thieves = 4
	d := New[int](8)
	var seen [n]atomic.Int32
	var consumed atomic.Int64

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < thieves; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]*int, 8)
			drain := func() bool {
				k := d.StealBatch(buf)
				for j := 0; j < k; j++ {
					seen[*buf[j]].Add(1)
					consumed.Add(1)
				}
				return k > 0
			}
			for {
				if drain() {
					continue
				}
				select {
				case <-stop:
					for drain() {
					}
					return
				default:
				}
			}
		}()
	}

	for i := 0; i < n; i++ {
		d.Push(i)
		if i%3 == 0 {
			if v, ok := d.Pop(); ok {
				seen[v].Add(1)
				consumed.Add(1)
			}
		}
	}
	for {
		v, ok := d.Pop()
		if !ok {
			break
		}
		seen[v].Add(1)
		consumed.Add(1)
	}
	close(stop)
	wg.Wait()
	for {
		v, ok := d.Steal()
		if !ok {
			break
		}
		seen[v].Add(1)
		consumed.Add(1)
	}

	if got := consumed.Load(); got != n {
		t.Fatalf("consumed %d values, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		if c := seen[i].Load(); c != 1 {
			t.Fatalf("value %d consumed %d times", i, c)
		}
	}
}

func BenchmarkPushPop(b *testing.B) {
	d := New[int](1024)
	for i := 0; i < b.N; i++ {
		d.Push(i)
		d.Pop()
	}
}

func BenchmarkStealThroughput(b *testing.B) {
	d := New[int](1024)
	done := make(chan struct{})
	go func() {
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
				if d.Len() < 512 {
					d.Push(i)
				}
			}
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Steal()
	}
	close(done)
}

// TestQuickModelConformance drives random operation sequences against a
// slice model (single-threaded: Pop takes the back, Steal the front).
func TestQuickModelConformance(t *testing.T) {
	f := func(ops []byte) bool {
		d := New[int](4)
		var model []int
		next := 0
		for _, op := range ops {
			switch op % 4 {
			case 0, 1: // bias toward pushes so the deque fills
				d.Push(next)
				model = append(model, next)
				next++
			case 2:
				v, ok := d.Pop()
				if ok != (len(model) > 0) {
					return false
				}
				if ok {
					want := model[len(model)-1]
					model = model[:len(model)-1]
					if v != want {
						return false
					}
				}
			case 3:
				v, ok := d.Steal()
				if ok != (len(model) > 0) {
					return false
				}
				if ok {
					want := model[0]
					model = model[1:]
					if v != want {
						return false
					}
				}
			}
		}
		return d.Len() == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPointerFormsMoveThePointer checks the contract the scheduler relies
// on: the pointer forms hand back exactly the pointers pushed, in deque
// order, and moving a pointer through the deque allocates nothing.
func TestPointerFormsMoveThePointer(t *testing.T) {
	type rec struct{ id int }
	recs := make([]rec, 6)
	d := New[rec](8)
	for i := range recs {
		d.PushPtr(&recs[i])
	}
	if p := d.StealPtr(); p != &recs[0] {
		t.Errorf("StealPtr = %p, want the oldest record %p", p, &recs[0])
	}
	if p := d.PopPtr(); p != &recs[5] {
		t.Errorf("PopPtr = %p, want the newest record %p", p, &recs[5])
	}
	buf := make([]*rec, 4)
	if k := d.StealBatch(buf); k != 2 || buf[0] != &recs[1] || buf[1] != &recs[2] {
		t.Errorf("StealBatch = %d %v, want records 1 and 2", k, buf[:k])
	}
	d.PushBatch(buf[:2])
	for _, want := range []*rec{&recs[2], &recs[1], &recs[4], &recs[3]} {
		if p := d.PopPtr(); p != want {
			t.Errorf("PopPtr = %p, want %p", p, want)
		}
	}
	if d.PopPtr() != nil || d.StealPtr() != nil {
		t.Error("empty deque returned a pointer")
	}
	if n := testing.AllocsPerRun(100, func() {
		d.PushPtr(&recs[0])
		d.PushBatch(buf[:2])
		d.StealBatch(buf)
		d.StealPtr()
		d.PopPtr()
	}); n != 0 {
		t.Errorf("pointer forms allocated %v times per run", n)
	}
}
