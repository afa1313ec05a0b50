package pipeline

import "sync"

// FilterMode mirrors tbb::pipeline's filter kinds.
type FilterMode int

const (
	// Parallel filters process any number of items concurrently.
	Parallel FilterMode = iota
	// SerialInOrder filters process one item at a time, in input order.
	SerialInOrder
)

// Filter is one TBB-style pipeline filter. Filters are strictly 1:1:
// each input item yields exactly one output item — the structural
// constraint the paper contrasts with hyperqueues (§6.2: variable
// input/output counts force restructuring under TBB).
type Filter struct {
	Name string
	Mode FilterMode
	Fn   func(any) any
}

// RunTBB executes a token-limited structured pipeline, the shape of
// tbb::pipeline::run(maxTokens). The input function is the first,
// implicitly serial-in-order filter: it returns items until it returns
// nil (end of stream). At most maxTokens items are in flight, processed
// by a pool of `workers` goroutines.
func RunTBB(input func() any, filters []Filter, workers, maxTokens int) {
	if workers < 1 {
		workers = 1
	}
	if maxTokens < 1 {
		maxTokens = 1
	}
	type token struct {
		seq  int64
		data any
	}
	var (
		inMu   sync.Mutex
		nextIn int64
		eof    bool
	)
	// Per-serial-filter ordering state.
	type serialState struct {
		mu   sync.Mutex
		cond *sync.Cond
		next int64 // next sequence number to admit
	}
	states := make([]*serialState, len(filters))
	for i, f := range filters {
		if f.Mode != Parallel {
			s := &serialState{}
			s.cond = sync.NewCond(&s.mu)
			states[i] = s
		}
	}
	tokens := make(chan struct{}, maxTokens)
	for i := 0; i < maxTokens; i++ {
		tokens <- struct{}{}
	}

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				<-tokens
				inMu.Lock()
				if eof {
					inMu.Unlock()
					tokens <- struct{}{}
					return
				}
				data := input()
				if data == nil {
					eof = true
					inMu.Unlock()
					tokens <- struct{}{}
					return
				}
				tk := token{seq: nextIn, data: data}
				nextIn++
				inMu.Unlock()

				for i, f := range filters {
					if f.Mode == Parallel {
						tk.data = f.Fn(tk.data)
						continue
					}
					s := states[i]
					s.mu.Lock()
					for s.next != tk.seq {
						s.cond.Wait()
					}
					tk.data = f.Fn(tk.data)
					s.next++
					s.cond.Broadcast()
					s.mu.Unlock()
				}
				tokens <- struct{}{}
			}
		}()
	}
	wg.Wait()
}
