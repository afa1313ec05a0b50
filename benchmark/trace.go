package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// span is one traced interval: a call into a layer, or a stage task body
// the benchmark owns. Times are nanoseconds after the tracer's start.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index of the span that caused this one, -1 for none
	Rep    int32  `json:"rep"`
}

// tracer records spans into a buffer allocated up front, so that tracing
// allocates nothing while a workload runs. Tasks on different workers
// record concurrently; each claims its own slot. A nil tracer records
// nothing: the untraced pass runs the same code with tr == nil.
type tracer struct {
	t0      time.Time
	spans   []span
	n       atomic.Int32
	rep     atomic.Int32
	dropped atomic.Int64 // spans that did not fit the buffer

	// Sampled queue calls: pushes are recorded by a workload's producer
	// task and pops by its consumer task, one writer each.
	pushes, pops callSample
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, capacity)}
}

func (t *tracer) claim(name string, parent int32, start, end int64) int32 {
	i := t.n.Add(1) - 1
	if int(i) >= len(t.spans) {
		t.n.Add(-1)
		t.dropped.Add(1)
		return -1
	}
	t.spans[i] = span{Name: name, Start: start, End: end, Parent: parent, Rep: t.rep.Load()}
	return i
}

// begin opens a span and returns its index, to be passed to end and, as
// parent, to the spans it causes.
func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return -1
	}
	return t.claim(name, parent, int64(time.Since(t.t0)), 0)
}

func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
}

// add records a span whose interval was timed by the caller.
func (t *tracer) add(name string, parent int32, start, end time.Time) {
	if t == nil {
		return
	}
	t.claim(name, parent, int64(start.Sub(t.t0)), int64(end.Sub(t.t0)))
}

func (t *tracer) recorded() []span { return t.spans[:t.n.Load()] }

// sampleMask selects the calls the traced pass times: one in 1024.
const sampleMask = 1<<10 - 1

// slowCall is the duration above which a sampled Push or Pop counts as
// having waited (for credit, for data, or for a lock) rather than run.
const slowCall = 2 * time.Microsecond

// callSample counts the sampled calls of one kind and how many waited.
type callSample struct{ n, slow int }

// samplePush and samplePop record one timed Push or Empty+Pop call as a
// span under parent and count it towards the wait fractions.
func (t *tracer) samplePush(parent int32, t0, t1 time.Time) {
	t.pushes.count(t0, t1)
	t.add("queue.Push", parent, t0, t1)
}

func (t *tracer) samplePop(parent int32, t0, t1 time.Time) {
	t.pops.count(t0, t1)
	t.add("queue.Pop", parent, t0, t1)
}

func (s *callSample) count(t0, t1 time.Time) {
	s.n++
	if t1.Sub(t0) > slowCall {
		s.slow++
	}
}

func (s *callSample) waitFrac() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.slow) / float64(s.n)
}

// selfTimes returns, for each span, its duration minus the part of its
// interval that its child spans cover. Children of one span may overlap
// (tasks on different workers), so the covered part is the union of
// their intervals, clipped to the parent.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		kids := children[int32(i)]
		if len(kids) == 0 {
			continue
		}
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, reach), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] -= covered
	}
	return self
}

// spanSummary is the per-name roll-up written beside the raw spans.
type spanSummary struct {
	Count   int   `json:"count"`
	TotalNs int64 `json:"total_ns"`
	SelfNs  int64 `json:"self_ns"`
}

func summarize(spans []span) map[string]spanSummary {
	self := selfTimes(spans)
	out := make(map[string]spanSummary)
	for i, s := range spans {
		sum := out[s.Name]
		sum.Count++
		sum.TotalNs += s.End - s.Start
		sum.SelfNs += self[i]
		out[s.Name] = sum
	}
	return out
}

// traceFile is what the traced pass leaves in benchmark/out.
type traceFile struct {
	Env      environment            `json:"env"`
	Workload string                 `json:"workload"`
	Dropped  int64                  `json:"spans_dropped"`
	Summary  map[string]spanSummary `json:"summary"`
	Counters []counterSnapshot      `json:"counters"`
	Spans    []span                 `json:"spans"`
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
