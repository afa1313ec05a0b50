package swan

import "repro/internal/core"

// QueueStats is a snapshot of one metered queue's gauges and counters:
// occupancy and high-water, the cumulative push/pop totals they derive
// from, and the block/wake counters of both sides' slow paths. Queues
// are metered when constructed with Bounded or Named; plain unbounded
// queues carry no meter and do not appear in RuntimeStats.Queues.
type QueueStats = core.QueueStat

// RuntimeStats is a snapshot of a runtime's resource counters: the
// scheduler's dispatch activity, the hyperqueue layer's runtime-wide
// recycling gauges (the per-Runtime segment pool and Queue.Recycle),
// and the per-queue meters of every Bounded or Named queue. It is a
// diagnostic surface — cmd/paperbench -stats prints it after a run and
// ServeMetrics exports it live — not a hot-path primitive.
type RuntimeStats struct {
	Workers        int          // worker slots the runtime was built with
	PooledSegments int          // segments currently cached across all pools
	SegmentAllocs  uint64       // segments ever allocated fresh (pool misses)
	RecycledQueues uint64       // completed Queue.Recycle resets
	Spawns         uint64       // tasks dispatched
	TaskAllocs     uint64       // of those, task records allocated fresh; the rest reused a worker's recycled record
	Steals         uint64       // successful steal sweeps
	StolenTasks    uint64       // tasks taken by steal sweeps (>= Steals with steal-half batching)
	Parks          uint64       // worker sleeps for lack of work
	Blocks         uint64       // Block regions entered
	Blocked        int          // tasks currently inside a Block region
	CanceledRuns   uint64       // Run invocations that ended canceled (Runtime.Cancel, scope cancel, task panic)
	TaskPanics     uint64       // task bodies that panicked (each also cancels its run's scope)
	Sheds          uint64       // values refused by TryPush or timed-out PushTimeout, across all metered queues
	Queues         []QueueStats // metered queues, in creation order
	// Hyperobjects holds the named reducers and hypermaps, aggregated
	// by (name, kind) in order of first registration.
	Hyperobjects []HyperobjectStats
}

// Stats reports a snapshot of rt's runtime-wide counters.
func Stats(rt *Runtime) RuntimeStats {
	s := rt.Stats()
	prov := core.ProviderOf(rt)
	queues := prov.QueueStats()
	var sheds uint64
	for _, q := range queues {
		sheds += q.Sheds
	}
	return RuntimeStats{
		Workers:        rt.Workers(),
		PooledSegments: prov.PooledSegments(),
		SegmentAllocs:  prov.SegmentAllocs(),
		RecycledQueues: prov.RecycledQueues(),
		Spawns:         s.Spawns,
		TaskAllocs:     s.TaskAllocs,
		Steals:         s.Steals,
		StolenTasks:    s.StolenTasks,
		Parks:          s.Parks,
		Blocks:         s.Blocks,
		Blocked:        s.Blocked,
		CanceledRuns:   s.CanceledRuns,
		TaskPanics:     s.TaskPanics,
		Sheds:          sheds,
		Queues:         queues,
		Hyperobjects:   prov.HyperStats(),
	}
}
