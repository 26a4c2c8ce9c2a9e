package server

import (
	"container/heap"
	"errors"
	"fmt"
	"time"

	"batchmaker/internal/cellgraph"
	"batchmaker/internal/core"
	"batchmaker/internal/journal"
	"batchmaker/internal/obsv"
)

// Stage hand-off records. The request processor receives commands from
// callers on Server.cmds and completion records from workers on
// Server.completions; it talks to the scheduler loop through Server.slCmds.

// admitCmd asks the request processor to admit one constructed request.
type admitCmd struct {
	req   *request
	specs []core.SubgraphSpec
	reply chan error
}

// terminateCmd asks for early resolution (cancel or expire-by-context).
type terminateCmd struct {
	req   *request
	cause error
	reply chan bool
}

// drainCmd switches the server into draining mode.
type drainCmd struct{}

// stopCmd begins fail-fast shutdown.
type stopCmd struct{}

// execRef names one gathered row of a batched task: which request, which
// node. Workers record the refs they actually executed so the request
// processor can advance exactly those dependencies.
type execRef struct {
	req  *request
	node cellgraph.NodeID
}

// completion is one worker→request-processor record: either a finished task
// (scattered outputs on success, err set on failure) or a worker-exit
// sentinel.
type completion struct {
	worker   int
	task     *core.Task
	executed []execRef
	// refsBuf, when non-nil, is the pooled backing buffer of executed. The
	// request processor returns it to execRefPool after complete() so the
	// steady-state path allocates no per-task slice.
	refsBuf *[]execRef
	err     error
	exit    bool
}

// deadlineEntry is one pending expiry. Entries are lazily deleted: a
// resolved request's entry is skipped when it surfaces at the heap top.
type deadlineEntry struct {
	at time.Time
	r  *request
}

type deadlineHeap []deadlineEntry

func (h deadlineHeap) Len() int           { return len(h) }
func (h deadlineHeap) Less(i, j int) bool { return h[i].at.Before(h[j].at) }
func (h deadlineHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *deadlineHeap) Push(x any)        { *h = append(*h, x.(deadlineEntry)) }
func (h *deadlineHeap) Pop() any          { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// rpState is the request processor's private state. Nothing here is shared:
// other stages reach it only through channels.
type rpState struct {
	s        *Server
	reqs     map[core.RequestID]*request
	deadline deadlineHeap
	timer    *time.Timer
	// timerArmed tracks whether timer.C holds (or will hold) an undelivered
	// tick, so re-arming can drain it safely.
	timerArmed  bool
	queuedCells int
	stopped     bool
	draining    bool
	drainClosed bool
	workersLeft int
}

// requestProcessor is the manager stage of §4.2: it owns admission,
// dependency tracking, deadline expiry, and request resolution. It is the
// only goroutine that moves requests between lifecycle states, which is
// what makes "exactly one terminal state" a structural property rather
// than a locking discipline.
func (s *Server) requestProcessor() {
	defer s.wg.Done()
	rp := &rpState{
		s:           s,
		reqs:        make(map[core.RequestID]*request),
		timer:       time.NewTimer(time.Hour),
		workersLeft: len(s.taskChans),
	}
	if !rp.timer.Stop() {
		<-rp.timer.C
	}
	for {
		select {
		case c := <-s.cmds:
			switch cmd := c.(type) {
			case admitCmd:
				cmd.reply <- rp.admit(cmd)
			case terminateCmd:
				cmd.reply <- rp.terminate(cmd.req, cmd.cause)
			case drainCmd:
				rp.drain()
			case stopCmd:
				rp.stop()
			}
		case rec := <-s.completions:
			if rec.exit {
				rp.workersLeft--
			} else {
				rp.complete(rec)
				if rec.refsBuf != nil {
					putExecRefs(rec.refsBuf)
				}
			}
		case <-rp.timer.C:
			rp.timerArmed = false
			rp.expireDue()
			rp.rearm()
		}
		if rp.stopped && rp.workersLeft == 0 {
			// All workers have exited (their channels were closed by the
			// scheduler loop after its bookkeeping drained), so no more
			// completions can arrive; remaining public API calls fail fast
			// via stopdCh.
			return
		}
	}
}

// admit performs the admission decision and registers the request. The
// request becomes worker-visible before its subgraphs reach the scheduler
// loop, because dispatch can race ahead of the admission reply.
func (rp *rpState) admit(cmd admitCmd) error {
	s, r := rp.s, cmd.req
	if rp.stopped {
		return ErrStopped
	}
	if rp.draining {
		rp.reject()
		return ErrDraining
	}
	if n := s.cfg.MaxQueuedRequests; n > 0 && len(rp.reqs) >= n {
		rp.reject()
		return fmt.Errorf("%w: %d requests queued (max %d)", ErrOverloaded, len(rp.reqs), n)
	}
	if n := s.cfg.MaxQueuedCells; n > 0 && rp.queuedCells+r.cells > n {
		rp.reject()
		return fmt.Errorf("%w: %d cells queued, request adds %d (max %d)", ErrOverloaded, rp.queuedCells, r.cells, n)
	}
	if p := s.policy; p != nil {
		// Little's-law gate: shed before the queue spirals past the SLA,
		// ahead of (and more conservative than) the static bounds above.
		nowNs := time.Now().UnixNano()
		if d := p.Admit(nowNs, rp.queuedCells); !d.Admit {
			rp.s.obs.policyShed(nowNs)
			rp.reject()
			return &OverloadError{EstWait: d.EstWait, RetryAfter: d.RetryAfter}
		}
	}
	if !r.deadline.IsZero() {
		// Stamp the SLA expiry onto the specs so the scheduler's EDF ready
		// queues order this request's cells by urgency within their type.
		dl := r.deadline.UnixNano()
		for i := range cmd.specs {
			cmd.specs[i].Deadline = dl
		}
	}
	r.admittedNs = time.Now().UnixNano()
	rp.reqs[r.id] = r
	s.liveMu.Lock()
	s.live[r.id] = r
	s.liveMu.Unlock()
	if err := rp.addSubgraphs(r.id, cmd.specs); err != nil {
		// The scheduler loop already rolled its side back (CancelRequest);
		// unregister so nothing stays admitted without an owning handle.
		delete(rp.reqs, r.id)
		s.liveMu.Lock()
		delete(s.live, r.id)
		s.liveMu.Unlock()
		return err
	}
	if !r.deadline.IsZero() {
		heap.Push(&rp.deadline, deadlineEntry{at: r.deadline, r: r})
		rp.rearm()
	}
	rp.queuedCells += r.cells
	s.obs.admit(r.id, r.admittedNs, len(rp.reqs), rp.queuedCells)
	if s.journal != nil && !r.replayed {
		// Enqueued here, on the request processor's goroutine, so the admit
		// record always precedes this request's terminal record in the
		// journal's FIFO. The enqueue never blocks; only the submitting
		// caller waits on jwait.
		var dl int64
		if !r.deadline.IsZero() {
			dl = r.deadline.UnixNano()
		}
		r.jwait = s.journal.AppendAdmit(uint64(r.id), r.payload, dl)
	}
	return nil
}

// jterminal journals a terminal outcome. Called at every terminal site,
// always on the request-processor goroutine, before resolve.
func (s *Server) jterminal(id core.RequestID, outcome journal.Outcome, reason string) {
	if s.journal != nil {
		s.journal.AppendTerminal(uint64(id), outcome, reason)
	}
}

// addSubgraphs round-trips one batch of subgraph specs to the scheduler
// loop; on error the scheduler loop has already cancelled the request's
// scheduler-side registration.
func (rp *rpState) addSubgraphs(id core.RequestID, specs []core.SubgraphSpec) error {
	reply := make(chan error, 1)
	rp.s.slCmds <- slCmd{kind: slAdd, req: id, specs: specs, reply: reply}
	return <-reply
}

// reject records one shed submission on the request processor's goroutine
// (which owns the rp span ring).
func (rp *rpState) reject() { rp.s.obs.reject(true) }

// terminate resolves a live request early with ErrCancelled or ErrExpired.
func (rp *rpState) terminate(r *request, cause error) bool {
	if _, live := rp.reqs[r.id]; !live {
		return false
	}
	s := rp.s
	s.slCmds <- slCmd{kind: slCancel, req: r.id}
	kind := obsv.KindCancel
	jOutcome := journal.OutcomeCancelled
	if errors.Is(cause, ErrExpired) {
		kind = obsv.KindExpire
		jOutcome = journal.OutcomeExpired
	}
	s.obs.terminal(r, kind, time.Now().UnixNano())
	s.jterminal(r.id, jOutcome, cause.Error())
	rp.resolve(r, cause)
	return true
}

// complete consumes one worker completion record: fail or advance each
// executed row's request, release successor subgraphs, resolve finished
// requests, then let the scheduler loop retire the task (which unpins its
// subgraphs and triggers the next dispatch).
func (rp *rpState) complete(rec completion) {
	s := rp.s
	for _, ref := range rec.executed {
		r := ref.req
		if _, live := rp.reqs[r.id]; !live {
			// Resolved earlier (cancelled, expired, stopped, or a sibling
			// row's failure); nothing to advance.
			continue
		}
		if rec.err != nil {
			cell := s.cells[rec.task.TypeKey]
			rp.fail(r, fmt.Errorf("server: executing %s: %w", cell.Name(), rec.err))
			continue
		}
		released, err := r.tracker.NodeDone(ref.node)
		if err != nil {
			rp.fail(r, err)
			continue
		}
		rp.queuedCells--
		s.obs.gauges(len(rp.reqs), rp.queuedCells)
		if len(released) > 0 {
			if !r.deadline.IsZero() {
				dl := r.deadline.UnixNano()
				for i := range released {
					released[i].Deadline = dl
				}
			}
			if err := rp.addSubgraphs(r.id, released); err != nil {
				rp.fail(r, err)
				continue
			}
		}
		if r.tracker.Finished() {
			// Return immediately: the request does not wait for others in
			// the batch.
			r.stateMu.Lock()
			r.results = r.state.Results()
			r.stateMu.Unlock()
			nowNs := time.Now().UnixNano()
			s.obs.terminal(r, obsv.KindComplete, nowNs)
			s.jterminal(r.id, journal.OutcomeCompleted, "")
			if p := s.policy; p != nil {
				// Feed the finished request's latency split back into the
				// controllers; forward any MaxBatch moves to the scheduler
				// loop, which owns the core.Scheduler.
				fe := r.firstExecNs.Load()
				if fe == 0 {
					fe = nowNs
				}
				moves := p.Completed(nowNs, r.cells,
					time.Duration(fe-r.admittedNs), time.Duration(nowNs-fe))
				for _, mv := range moves {
					s.obs.policyMaxBatch(mv.Key, mv.MaxBatch, nowNs)
					s.slCmds <- slCmd{kind: slSetMaxBatch, typeKey: mv.Key, batch: mv.MaxBatch}
				}
			}
			rp.resolve(r, nil)
		}
	}
	// Retire the task after any CancelRequest issued above, preserving the
	// cancel-before-unpin order the scheduler's bookkeeping expects.
	s.slCmds <- slCmd{kind: slTaskDone, task: rec.task.ID, worker: rec.worker}
}

// fail finalizes a request with an execution error, purging its queued work
// from the scheduler.
func (rp *rpState) fail(r *request, err error) {
	if _, live := rp.reqs[r.id]; !live {
		return
	}
	s := rp.s
	s.slCmds <- slCmd{kind: slCancel, req: r.id}
	s.obs.terminal(r, obsv.KindFail, time.Now().UnixNano())
	s.jterminal(r.id, journal.OutcomeFailed, err.Error())
	rp.resolve(r, err)
}

// expireDue expires every request whose deadline has passed.
func (rp *rpState) expireDue() {
	s := rp.s
	now := time.Now()
	for len(rp.deadline) > 0 && !rp.deadline[0].at.After(now) {
		e := heap.Pop(&rp.deadline).(deadlineEntry)
		r := e.r
		if _, live := rp.reqs[r.id]; !live {
			continue
		}
		s.slCmds <- slCmd{kind: slCancel, req: r.id}
		s.obs.terminal(r, obsv.KindExpire, time.Now().UnixNano())
		err := fmt.Errorf("%w: deadline %v passed", ErrExpired, r.deadline.Format(time.RFC3339Nano))
		s.jterminal(r.id, journal.OutcomeExpired, err.Error())
		rp.resolve(r, err)
	}
}

// rearm points the deadline timer at the earliest live deadline, discarding
// entries of already-resolved requests on the way.
func (rp *rpState) rearm() {
	for len(rp.deadline) > 0 {
		if _, live := rp.reqs[rp.deadline[0].r.id]; live {
			break
		}
		heap.Pop(&rp.deadline)
	}
	if rp.timerArmed && !rp.timer.Stop() {
		<-rp.timer.C
	}
	rp.timerArmed = false
	if len(rp.deadline) > 0 {
		rp.timer.Reset(time.Until(rp.deadline[0].at))
		rp.timerArmed = true
	}
}

// resolve is the single exit point of a live request: it records the
// outcome, updates backlog accounting, and releases waiters — in that order,
// so a caller woken by Done already sees the request gone from Stats and
// Health. The caller has already classified the outcome (counter + span
// record).
func (rp *rpState) resolve(r *request, err error) {
	s := rp.s
	r.err = err
	r.resolved.Store(true)
	delete(rp.reqs, r.id)
	s.liveMu.Lock()
	delete(s.live, r.id)
	s.liveMu.Unlock()
	rp.queuedCells -= r.tracker.Remaining()
	s.obs.gauges(len(rp.reqs), rp.queuedCells)
	close(r.done)
	rp.maybeDrained()
}

// drain switches to draining mode: admissions shed, live work runs out.
func (rp *rpState) drain() {
	if rp.stopped || rp.draining {
		rp.maybeDrained()
		return
	}
	rp.draining = true
	rp.s.draining.Store(true)
	rp.maybeDrained()
}

// maybeDrained closes Server.drained once a drain (or stop) has no live
// requests left.
func (rp *rpState) maybeDrained() {
	if rp.drainClosed || len(rp.reqs) > 0 || (!rp.draining && !rp.stopped) {
		return
	}
	rp.drainClosed = true
	close(rp.s.drained)
}

// stop fails every live request with ErrStopped and tells the scheduler
// loop to wind down. The request processor itself exits only after all
// workers do, so every in-flight completion is still consumed and forwarded
// — that is what lets the scheduler's bookkeeping drain clean.
func (rp *rpState) stop() {
	if rp.stopped {
		return
	}
	rp.stopped = true
	close(rp.s.stopdCh)
	s := rp.s
	live := make([]*request, 0, len(rp.reqs))
	for _, r := range rp.reqs {
		live = append(live, r)
	}
	for _, r := range live {
		s.slCmds <- slCmd{kind: slCancel, req: r.id}
		s.obs.terminal(r, obsv.KindFail, time.Now().UnixNano())
		s.jterminal(r.id, journal.OutcomeFailed, ErrStopped.Error())
		rp.resolve(r, ErrStopped)
	}
	rp.maybeDrained()
	s.slCmds <- slCmd{kind: slStop}
}
