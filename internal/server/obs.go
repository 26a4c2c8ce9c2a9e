package server

import (
	"strconv"
	"time"

	"batchmaker/internal/core"
	"batchmaker/internal/obsv"
)

// ObsConfig configures the server's observability layer (Config.Obs).
type ObsConfig struct {
	// Registry receives the server's metric families. nil means the server
	// creates a private registry (retrievable via Server.Metrics) so
	// metrics and summaries work without any wiring.
	Registry *obsv.Registry
	// Disabled turns the recording layer off: no span rings, no lifecycle
	// records, no latency summaries (Server.Observer returns nil). The
	// counters and gauges stay on — they are the server's only bookkeeping,
	// the cells Stats and Health are computed from. Used by the tracing-off
	// arm of the overhead benchmark.
	Disabled bool
}

// serverObs bridges the pipeline stages to the obsv layer, the one place a
// serving-path fact is written. The metric cells of sm are always live; o
// and the rings are nil when ObsConfig.Disabled (nil rings are valid
// no-ops). Ring and cell ownership follows the locking: rpRing (lifecycle),
// schedRing (dispatch) and the outcome/backlog/depth/ready/dispatch cells
// are written only under mgr.mu, so they keep one writer at a time, and
// worker i writes workerRings[i], sm.Workers[i] and sm.Exec[i].
type serverObs struct {
	o  *obsv.Observer
	sm *obsv.ServingMetrics

	rpRing      *obsv.Ring
	schedRing   *obsv.Ring
	workerRings []*obsv.Ring

	// pm is the policy metrics handle (nil when no policy is
	// wired); Health reads its gauges to surface shed state.
	pm *obsv.PolicyMetrics
}

// newServerObs builds the observability bridge for a server with the given
// cell types and worker count.
func newServerObs(cfg ObsConfig, types []cellType, workers int) *serverObs {
	reg := cfg.Registry
	if reg == nil {
		reg = obsv.NewRegistry()
	}
	names := make([]string, len(types))
	maxBatch := make([]int, len(types))
	for t := range types {
		names[t], maxBatch[t] = types[t].key, int(types[t].maxBatch)
	}
	ob := &serverObs{
		sm:          obsv.NewServingMetrics(reg, names, workers),
		workerRings: make([]*obsv.Ring, workers),
	}
	if !cfg.Disabled {
		ob.o = obsv.NewObserver(ob.sm, obsv.DefaultRingCapacity)
		ob.rpRing = ob.o.NewRing("rp")
		ob.schedRing = ob.o.NewRing("sched")
		for w := range ob.workerRings {
			ob.workerRings[w] = ob.o.NewRing("worker-" + strconv.Itoa(w))
		}
		ob.o.SetTypes(names, maxBatch)
	}
	return ob
}

// ---- manager (rpRing and schedRing: written only under mgr.mu) ----

// admit records one admission: outcome counter, gauges, lifecycle record.
func (ob *serverObs) admit(id core.RequestID, nowNs int64, liveReqs, queuedCells int) {
	ob.sm.Admitted.Inc()
	ob.sm.Inflight.Set(int64(liveReqs))
	ob.sm.QueuedCells.Set(int64(queuedCells))
	ob.rpRing.Write(obsv.Record{Kind: obsv.KindAdmit, Req: int64(id), T0: nowNs})
}

// reject records one shed submission. fromRP distinguishes sheds under
// mgr.mu (which may write the lifecycle record to rpRing) from sheds
// outside it (DOA deadlines), which only bump the counter — the ring takes
// one writer at a time.
func (ob *serverObs) reject(fromRP bool) {
	ob.sm.Rejected.Inc()
	if fromRP {
		ob.rpRing.Write(obsv.Record{Kind: obsv.KindReject, T0: time.Now().UnixNano()})
	}
}

// terminal records a request reaching its terminal state. For completions
// it also observes the paper's queuing/computation latency split, using the
// admit timestamp and the worker-CAS'd first-execution timestamp.
func (ob *serverObs) terminal(r *request, kind obsv.Kind, nowNs int64) {
	switch kind {
	case obsv.KindComplete:
		ob.sm.Completed.Inc()
	case obsv.KindFail:
		ob.sm.Failed.Inc()
	case obsv.KindExpire:
		ob.sm.Expired.Inc()
	case obsv.KindCancel:
		ob.sm.Cancelled.Inc()
	}
	if kind == obsv.KindComplete && ob.o != nil {
		if first := r.firstExecNs.Load(); first > 0 && r.admittedNs > 0 {
			ob.sm.ObserveLatencySplit(
				time.Duration(first-r.admittedNs),
				time.Duration(nowNs-first))
		}
	}
	ob.rpRing.Write(obsv.Record{Kind: kind, Req: int64(r.id), T0: nowNs})
}

// policyShed records the SLA feasibility rule shedding one submission.
func (ob *serverObs) policyShed(nowNs int64) {
	ob.rpRing.Write(obsv.Record{Kind: obsv.KindPolicyShed, T0: nowNs})
}

// gauges refreshes the backlog gauges.
func (ob *serverObs) gauges(liveReqs, queuedCells int) {
	ob.sm.Inflight.Set(int64(liveReqs))
	ob.sm.QueuedCells.Set(int64(queuedCells))
}

// dispatch stamps the task's observability fields and records the dispatch
// span. Called just before the task is sent to its worker. The narrowing
// conversions here and below cannot truncate: New bounds the worker count by
// 256, and MaxBatch and the type count by 65535; a queue holds at most
// MaxTasksToSubmit tasks. A record's Type is the task's type id + 1.
func (ob *serverObs) dispatch(task *core.Task, queueDepth int, nowNs int64) {
	task.DispatchedAt = nowNs
	task.QueueDepth = int32(queueDepth)
	ob.schedRing.Write(obsv.Record{
		Kind:   obsv.KindDispatch,
		Worker: uint8(task.Worker),
		Type:   uint16(task.Type) + 1,
		Batch:  uint16(task.BatchSize()),
		Queue:  uint16(queueDepth),
		T0:     nowNs,
	})
}

// mirrorScheduler refreshes the per-type ready-queue and per-worker depth
// gauges from the manager's state, under mgr.mu.
func (ob *serverObs) mirrorScheduler(sched *core.Scheduler, outstanding []int) {
	for t := range ob.sm.Types {
		ob.sm.Types[t].Ready.Set(int64(sched.ReadyNodes(core.TypeID(t))))
	}
	for w, d := range outstanding {
		ob.sm.Workers[w].Depth.Set(int64(d))
	}
}

// ---- workers (worker i is the single writer of workerRings[i],
// sm.Workers[i] and sm.Exec[i]) ----

// firstExec marks each request's first executed cell (CAS so exactly one
// worker wins) and writes the lifecycle record for winners. Runs on the
// worker hot path: in steady state every CAS fails fast on the first load
// and nothing is written.
func (ob *serverObs) firstExec(workerID int, refs []execRef, nowNs int64) {
	for _, ref := range refs {
		if ref.req.firstExecNs.Load() == 0 && ref.req.firstExecNs.CompareAndSwap(0, nowNs) {
			ob.workerRings[workerID].Write(obsv.Record{
				Kind:   obsv.KindFirstExec,
				Worker: uint8(workerID),
				Batch:  uint16(len(refs)),
				Req:    int64(ref.req.id),
				T0:     nowNs,
			})
		}
	}
}

// taskExec records one executed batched task: the worker's own per-type
// task/cell counters and busy time, occupancy/padding counters, arena
// high-water, and the task span carrying dispatch→completion timestamps and
// queue depth at dispatch.
func (ob *serverObs) taskExec(workerID int, task *core.Task, te *typeExec, live int, busyNs, arenaHighWaterBytes, endNs int64) {
	te.exec.Tasks.Inc()
	te.exec.Cells.Add(int64(live))
	wm := &ob.sm.Workers[workerID]
	wm.Busy.Add(busyNs)
	wm.ArenaHighWater.Max(arenaHighWaterBytes)
	ob.sm.SlotsCap.Add(te.maxBatch)
	ob.sm.SlotsUsed.Add(int64(live))
	ob.sm.BatchOccupancy.Observe(int64(live))
	ob.workerRings[workerID].Write(obsv.Record{
		Kind:   obsv.KindTaskExec,
		Worker: uint8(workerID),
		Type:   uint16(task.Type) + 1,
		Batch:  uint16(live),
		Queue:  uint16(task.QueueDepth),
		T0:     task.DispatchedAt,
		T1:     endNs,
	})
}

// cellPanic records one recovered cell panic against its cell type.
func (ob *serverObs) cellPanic(task *core.Task, batch int) {
	ob.sm.Types[task.Type].Panics.Inc()
	ob.workerRings[task.Worker].Write(obsv.Record{
		Kind:   obsv.KindPanic,
		Worker: uint8(task.Worker),
		Type:   uint16(task.Type) + 1,
		Batch:  uint16(batch),
		T0:     time.Now().UnixNano(),
	})
}

// ---- public accessors ----

// Observer returns the server's span observer, or nil when
// ObsConfig.Disabled. The observer backs the HTTP introspection endpoints
// (obsv.Handler), the trace and incident bundles.
func (s *Server) Observer() *obsv.Observer { return s.obs.o }

// Metrics returns the server's serving-metric cells. They are live in every
// configuration: Stats and Health are computed from them.
func (s *Server) Metrics() *obsv.ServingMetrics { return s.obs.sm }

// PolicyMetrics returns the policy metric handles, or nil when no
// policy is wired.
func (s *Server) PolicyMetrics() *obsv.PolicyMetrics { return s.obs.pm }

// Health reports the server's drain/overload state for /healthz probes.
func (s *Server) Health() obsv.Health {
	stopped := false
	select {
	case <-s.stopdCh:
		stopped = true
	default:
	}
	live, queued := int(s.obs.sm.Inflight.Value()), int(s.obs.sm.QueuedCells.Value())
	n := s.cfg.MaxQueuedRequests
	overloaded := n > 0 && live >= n
	h := obsv.Health{
		Draining:     s.draining.Load(),
		Stopped:      stopped,
		Overloaded:   overloaded,
		LiveRequests: live,
		QueuedCells:  queued,
	}
	if pm := s.obs.pm; pm != nil {
		h.PolicyShedding = pm.Shedding.Value() == 1
		h.PolicySheds = pm.Sheds.Value()
	}
	switch {
	case stopped:
		h.Status = "stopped"
	case h.Draining:
		h.Status = "draining"
	case overloaded:
		h.Status = "overloaded"
	default:
		h.Status = "serving"
	}
	return h
}
