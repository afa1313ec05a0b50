package swan

import (
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
)

// The metrics surface: RuntimeStats rendered in the Prometheus text
// exposition format over plain net/http, with the same snapshots also
// published through the standard library's expvar registry (so the
// endpoint doubles as /debug/vars for tooling that speaks that format).
// Everything here reads the diagnostic Stats snapshot on demand — no
// goroutine samples in the background and the hot paths are untouched.

// metricRow is one exported metric: its name, Prometheus type, help
// text, and a extractor over the snapshot. Per-queue metrics carry a
// {queue="name"} label per metered queue.
type metricRow struct {
	name, typ, help string
	value           func(s RuntimeStats) float64
	perQueue        func(q QueueStats) (float64, bool)
	perHyper        func(h HyperobjectStats) float64
}

var metricRows = []metricRow{
	{"swan_runtime_workers", "gauge", "Worker slots the runtime was built with.",
		func(s RuntimeStats) float64 { return float64(s.Workers) }, nil, nil},
	{"swan_pool_segments", "gauge", "Segments currently cached across all segment pools.",
		func(s RuntimeStats) float64 { return float64(s.PooledSegments) }, nil, nil},
	{"swan_pool_segment_allocs_total", "counter", "Segments ever allocated fresh (pool misses).",
		func(s RuntimeStats) float64 { return float64(s.SegmentAllocs) }, nil, nil},
	{"swan_queues_recycled_total", "counter", "Completed Queue.Recycle resets.",
		func(s RuntimeStats) float64 { return float64(s.RecycledQueues) }, nil, nil},
	{"swan_sched_spawns_total", "counter", "Tasks dispatched through the scheduler.",
		func(s RuntimeStats) float64 { return float64(s.Spawns) }, nil, nil},
	{"swan_sched_task_allocs_total", "counter", "Spawns that allocated a fresh task record (the rest reused a recycled one).",
		func(s RuntimeStats) float64 { return float64(s.TaskAllocs) }, nil, nil},
	{"swan_sched_steals_total", "counter", "Successful work-stealing steal sweeps.",
		func(s RuntimeStats) float64 { return float64(s.Steals) }, nil, nil},
	{"swan_sched_stolen_tasks_total", "counter", "Tasks taken by steal sweeps (> steals with steal-half batching).",
		func(s RuntimeStats) float64 { return float64(s.StolenTasks) }, nil, nil},
	{"swan_sched_parks_total", "counter", "Worker sleeps for lack of ready work.",
		func(s RuntimeStats) float64 { return float64(s.Parks) }, nil, nil},
	{"swan_sched_blocks_total", "counter", "Block regions entered (run token released).",
		func(s RuntimeStats) float64 { return float64(s.Blocks) }, nil, nil},
	{"swan_sched_blocked", "gauge", "Tasks currently inside a Block region.",
		func(s RuntimeStats) float64 { return float64(s.Blocked) }, nil, nil},
	{"swan_canceled_total", "counter", "Run invocations that ended canceled (Runtime.Cancel, scope cancel, task panic).",
		func(s RuntimeStats) float64 { return float64(s.CanceledRuns) }, nil, nil},
	{"swan_sched_panics_total", "counter", "Task bodies that panicked (each panic cancels its run's scope).",
		func(s RuntimeStats) float64 { return float64(s.TaskPanics) }, nil, nil},
	{"swan_shed_total", "counter", "Values refused by TryPush or timed-out PushTimeout, across all metered queues.",
		func(s RuntimeStats) float64 { return float64(s.Sheds) }, nil, nil},
	{"swan_queue_bound", "gauge", "Element budget of the queue (0 = unbounded, metering only).",
		nil, func(q QueueStats) (float64, bool) { return float64(q.Bound), true }, nil},
	{"swan_queue_occupancy", "gauge", "Values currently buffered in the queue (pushed - popped).",
		nil, func(q QueueStats) (float64, bool) { return float64(q.Occupancy), true }, nil},
	{"swan_queue_high_water", "gauge", "Maximum occupancy ever observed on the queue.",
		nil, func(q QueueStats) (float64, bool) { return float64(q.HighWater), true }, nil},
	{"swan_queue_pushed_total", "counter", "Values ever pushed into the queue.",
		nil, func(q QueueStats) (float64, bool) { return float64(q.Pushed), true }, nil},
	{"swan_queue_popped_total", "counter", "Values ever popped from the queue.",
		nil, func(q QueueStats) (float64, bool) { return float64(q.Popped), true }, nil},
	{"swan_queue_producer_blocks_total", "counter", "Producer parks on an exhausted element budget.",
		nil, func(q QueueStats) (float64, bool) { return float64(q.ProducerBlocks), true }, nil},
	{"swan_queue_producer_wakes_total", "counter", "Credit releases that found a parked producer.",
		nil, func(q QueueStats) (float64, bool) { return float64(q.ProducerWakes), true }, nil},
	{"swan_queue_consumer_blocks_total", "counter", "Consumer parks waiting for data.",
		nil, func(q QueueStats) (float64, bool) { return float64(q.ConsumerBlocks), true }, nil},
	{"swan_queue_consumer_wakes_total", "counter", "Pushes that found a parked consumer.",
		nil, func(q QueueStats) (float64, bool) { return float64(q.ConsumerWakes), true }, nil},
	{"swan_queue_sheds_total", "counter", "Values this queue refused via TryPush or timed-out PushTimeout.",
		nil, func(q QueueStats) (float64, bool) { return float64(q.Sheds), true }, nil},
	{"swan_hyperobject_views_total", "counter", "Views created on the hyperobject (owner + spawned writers).",
		nil, nil, func(h HyperobjectStats) float64 { return float64(h.Views) }},
	{"swan_hyperobject_merges_total", "counter", "Serial-order view merges performed by the hyperobject.",
		nil, nil, func(h HyperobjectStats) float64 { return float64(h.Merges) }},
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// WriteMetrics renders a point-in-time snapshot of rt's stats in the
// Prometheus text exposition format. The extra label pairs, if any, are
// attached to every sample (ServeMetrics uses none; multi-runtime
// aggregators like cmd/paperbench label each runtime).
func WriteMetrics(w io.Writer, rt *Runtime, labels ...[2]string) error {
	return writeMetricsSnap(w, Stats(rt), labels...)
}

func writeMetricsSnap(w io.Writer, s RuntimeStats, labels ...[2]string) error {
	var base strings.Builder
	for _, kv := range labels {
		if base.Len() > 0 {
			base.WriteByte(',')
		}
		fmt.Fprintf(&base, `%s=%q`, kv[0], escapeLabel(kv[1]))
	}
	for _, row := range metricRows {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", row.name, row.help, row.name, row.typ); err != nil {
			return err
		}
		if row.value != nil {
			lbl := ""
			if base.Len() > 0 {
				lbl = "{" + base.String() + "}"
			}
			if _, err := fmt.Fprintf(w, "%s%s %g\n", row.name, lbl, row.value(s)); err != nil {
				return err
			}
			continue
		}
		if row.perHyper != nil {
			for _, h := range s.Hyperobjects {
				lbl := fmt.Sprintf(`object=%q,kind=%q`, escapeLabel(h.Name), escapeLabel(h.Kind))
				if base.Len() > 0 {
					lbl = base.String() + "," + lbl
				}
				if _, err := fmt.Fprintf(w, "%s{%s} %g\n", row.name, lbl, row.perHyper(h)); err != nil {
					return err
				}
			}
			continue
		}
		for _, q := range s.Queues {
			v, ok := row.perQueue(q)
			if !ok {
				continue
			}
			lbl := fmt.Sprintf(`queue=%q`, escapeLabel(q.Name))
			if base.Len() > 0 {
				lbl = base.String() + "," + lbl
			}
			if _, err := fmt.Fprintf(w, "%s{%s} %g\n", row.name, lbl, v); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteMetricsMulti renders the stats of several runtimes into one
// Prometheus text exposition: metadata (# HELP / # TYPE) appears once
// per metric and every sample carries an rt="<index>" label telling the
// runtimes apart. cmd/paperbench -metrics uses it to serve all of its
// per-configuration runtimes from one endpoint.
func WriteMetricsMulti(w io.Writer, rts []*Runtime) error {
	snaps := make([]RuntimeStats, len(rts))
	for i, rt := range rts {
		snaps[i] = Stats(rt)
	}
	for _, row := range metricRows {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", row.name, row.help, row.name, row.typ); err != nil {
			return err
		}
		for i, s := range snaps {
			if row.value != nil {
				if _, err := fmt.Fprintf(w, "%s{rt=\"%d\"} %g\n", row.name, i, row.value(s)); err != nil {
					return err
				}
				continue
			}
			if row.perHyper != nil {
				for _, h := range s.Hyperobjects {
					if _, err := fmt.Fprintf(w, "%s{rt=\"%d\",object=%q,kind=%q} %g\n",
						row.name, i, escapeLabel(h.Name), escapeLabel(h.Kind), row.perHyper(h)); err != nil {
						return err
					}
				}
				continue
			}
			for _, q := range s.Queues {
				v, ok := row.perQueue(q)
				if !ok {
					continue
				}
				if _, err := fmt.Fprintf(w, "%s{rt=\"%d\",queue=%q} %g\n", row.name, i, escapeLabel(q.Name), v); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// MetricsHandler returns an http.Handler that serves rt's stats in
// Prometheus text format on every GET.
func MetricsHandler(rt *Runtime) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WriteMetrics(w, rt)
	})
}

// expvar publication: every runtime ever passed to ServeMetrics is
// snapshotted by one process-wide expvar.Func named "swan", so the
// stats are visible to any /debug/vars consumer as well. expvar names
// are process-global and cannot be unpublished, hence the Once and the
// indirection through the served list.
var (
	expvarOnce sync.Once
	servedMu   sync.Mutex
	served     []*Runtime
)

func publishExpvar() {
	expvarOnce.Do(func() {
		expvar.Publish("swan", expvar.Func(func() any {
			servedMu.Lock()
			defer servedMu.Unlock()
			out := make([]RuntimeStats, 0, len(served))
			for _, rt := range served {
				out = append(out, Stats(rt))
			}
			return out
		}))
	})
}

// MetricsServer is a live metrics endpoint started by ServeMetrics.
type MetricsServer struct {
	rt *Runtime
	ln net.Listener
	mu sync.Mutex
}

// Addr reports the address the server is listening on (host:port).
func (s *MetricsServer) Addr() string { return s.ln.Addr().String() }

// URL reports the scrape URL of the metrics endpoint.
func (s *MetricsServer) URL() string { return "http://" + s.Addr() + "/metrics" }

// Close stops the server and removes the runtime from the expvar
// snapshot list. Safe to call more than once.
func (s *MetricsServer) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.rt != nil {
		servedMu.Lock()
		for i, rt := range served {
			if rt == s.rt {
				served = append(served[:i], served[i+1:]...)
				break
			}
		}
		servedMu.Unlock()
		s.rt = nil
	}
	return s.ln.Close()
}

// ServeMetrics starts an HTTP server exposing rt's stats: Prometheus
// text format at /metrics (and /), the expvar JSON registry at
// /debug/vars. addr is a listen address like "127.0.0.1:9090"; an empty
// addr picks a free localhost port (read it back with Addr or URL).
// The server runs until Close.
func ServeMetrics(rt *Runtime, addr string) (*MetricsServer, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	publishExpvar()
	servedMu.Lock()
	served = append(served, rt)
	servedMu.Unlock()
	mux := http.NewServeMux()
	mux.Handle("/", MetricsHandler(rt))
	mux.Handle("/metrics", MetricsHandler(rt))
	mux.Handle("/debug/vars", expvar.Handler())
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	return &MetricsServer{rt: rt, ln: ln}, nil
}
