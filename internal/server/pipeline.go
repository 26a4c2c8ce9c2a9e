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

// Stage hand-off records. The manager receives commands from callers on
// Server.cmds and completion records from workers on Server.completions.

// admitCmd asks the manager to admit one constructed request.
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

// admitFaultCmd installs the admission fault seam (test hook); reply is
// closed once the hook is in place and the gauges are mirrored.
type admitFaultCmd struct {
	fault func(core.SubgraphSpec) error
	reply chan struct{}
}

// execRef names one gathered row of a batched task: which request, which
// node. Workers record the refs they actually executed so the manager can
// advance exactly those dependencies.
type execRef struct {
	req  *request
	node cellgraph.NodeID
}

// completion is one worker→manager record of a finished task: scattered
// outputs on success, err set on failure.
type completion struct {
	task     *core.Task
	executed []execRef
	// refsBuf, when non-nil, is the pooled backing buffer of executed. The
	// manager returns it to execRefPool after complete() so the steady-state
	// path allocates no per-task slice.
	refsBuf *[]execRef
	err     error
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

// mgr is the manager's private state. Nothing here is shared: other stages
// reach it only through channels.
type mgr struct {
	s        *Server
	sched    *core.Scheduler
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
	// outstanding[w] counts tasks dispatched to worker w whose completion
	// has not been retired yet.
	outstanding []int
	rr          int
	admitFault  func(core.SubgraphSpec) error
	// completed holds the requests the completion being consumed finished;
	// their blocks go back once its task has retired.
	completed []*request
}

// manager is §4.2's manager — request processor and scheduler in one
// goroutine. It owns admission, dependency tracking, deadline expiry,
// request resolution and the core.Scheduler, and dispatches batched tasks
// onto the bounded per-worker channels. Being the only goroutine that moves
// requests between lifecycle states is what makes "exactly one terminal
// state" a structural property rather than a locking discipline.
func (s *Server) manager(sched *core.Scheduler) {
	defer s.wg.Done()
	m := &mgr{
		s:           s,
		sched:       sched,
		reqs:        make(map[core.RequestID]*request),
		timer:       time.NewTimer(time.Hour),
		outstanding: make([]int, len(s.taskChans)),
	}
	if !m.timer.Stop() {
		<-m.timer.C
	}
	for {
		select {
		case c := <-s.cmds:
			switch cmd := c.(type) {
			case admitCmd:
				cmd.reply <- m.admit(cmd)
			case terminateCmd:
				cmd.reply <- m.terminate(cmd.req, cmd.cause)
			case drainCmd:
				m.drain()
			case stopCmd:
				m.stop()
			case admitFaultCmd:
				m.admitFault = cmd.fault
				m.mirror()
				close(cmd.reply)
			}
		case rec := <-s.completions:
			m.complete(rec)
		case <-m.timer.C:
			m.timerArmed = false
			m.expireDue()
			m.rearm()
		}
		// Retire the completions already buffered — counted once, so a stream
		// of admissions cannot starve dispatch — so dispatch sees every freed
		// worker and the union of the newly ready cells (better batches).
		for n := len(s.completions); n > 0; n-- {
			m.complete(<-s.completions)
		}
		if !m.stopped {
			m.dispatch()
		}
		m.mirror()
		if m.stopped && m.sched.InflightTasks() == 0 {
			// Every dispatched task has been retired, so the worker channels
			// are empty and no completion can arrive: closing them releases
			// the workers, and Stop's wg.Wait joins them.
			for _, ch := range s.taskChans {
				close(ch)
			}
			return
		}
	}
}

// dispatch hands batched tasks to every worker whose channel is empty,
// round-robin, until the scheduler forms no more. A worker's channel holds
// one scheduling round, so a dispatch send never blocks.
func (m *mgr) dispatch() {
	s := m.s
	for {
		progress := false
		for i := range s.taskChans {
			w := (m.rr + i) % len(s.taskChans)
			if m.outstanding[w] > 0 {
				continue
			}
			start := time.Now()
			tasks := m.sched.Schedule(core.WorkerID(w))
			if len(tasks) == 0 {
				continue
			}
			for _, t := range tasks {
				s.obs.dispatch(t, m.outstanding[w], start.UnixNano())
				s.taskChans[w] <- t
				m.outstanding[w]++
			}
			progress = true
			s.dispatchRounds.Add(1)
			s.obs.sm.Dispatch.Observe(time.Since(start))
		}
		m.rr = (m.rr + 1) % len(s.taskChans)
		if !progress {
			return
		}
	}
}

// mirror copies the scheduler's gauges into atomics and metric cells so
// Stats and SchedulerClean need no access to the manager's state.
func (m *mgr) mirror() {
	m.s.schedInflight.Store(int64(m.sched.InflightTasks()))
	m.s.schedLive.Store(int64(m.sched.LiveSubgraphs()))
	m.s.obs.mirrorScheduler(m.sched, m.outstanding)
}

// admit performs the admission decision and registers the request. The
// request becomes worker-visible before the next dispatch, so every task
// that carries its rows finds it in Server.live.
func (m *mgr) admit(cmd admitCmd) error {
	s, r := m.s, cmd.req
	if m.stopped {
		return ErrStopped
	}
	if m.draining {
		s.obs.reject(true)
		return ErrDraining
	}
	if n := s.cfg.MaxQueuedRequests; n > 0 && len(m.reqs) >= n {
		s.obs.reject(true)
		return fmt.Errorf("%w: %d requests queued (max %d)", ErrOverloaded, len(m.reqs), n)
	}
	if n := s.cfg.MaxQueuedCells; n > 0 && m.queuedCells+r.cells > n {
		s.obs.reject(true)
		return fmt.Errorf("%w: %d cells queued, request adds %d (max %d)", ErrOverloaded, m.queuedCells, r.cells, n)
	}
	if p := s.policy; p != nil {
		// Little's-law gate: shed before the queue spirals past the SLA,
		// ahead of (and more conservative than) the static bounds above.
		nowNs := time.Now().UnixNano()
		if d := p.Admit(nowNs, m.queuedCells); !d.Admit {
			s.obs.policyShed(nowNs)
			s.obs.reject(true)
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
	if err := m.addSubgraphs(cmd.specs); err != nil {
		// Roll back earlier subgraphs of this request so none stay
		// registered without an owning handle.
		m.sched.CancelRequest(r.id)
		return err
	}
	m.reqs[r.id] = r
	s.liveMu.Lock()
	s.live[r.id] = r
	s.liveMu.Unlock()
	if !r.deadline.IsZero() {
		heap.Push(&m.deadline, deadlineEntry{at: r.deadline, r: r})
		m.rearm()
	}
	m.queuedCells += r.cells
	s.obs.admit(r.id, r.admittedNs, len(m.reqs), m.queuedCells)
	if s.journal != nil && !r.replayed {
		// Enqueued here, on the manager's goroutine, so the admit record
		// always precedes this request's terminal record in the journal's
		// FIFO. The enqueue never blocks; only the submitting caller waits on
		// jwait.
		var dl int64
		if !r.deadline.IsZero() {
			dl = r.deadline.UnixNano()
		}
		r.jwait = s.journal.AppendAdmit(uint64(r.id), r.payload, dl)
	}
	return nil
}

// jterminal journals a terminal outcome. Called at every terminal site,
// always on the manager goroutine, before resolve.
func (s *Server) jterminal(id core.RequestID, outcome journal.Outcome, reason string) {
	if s.journal != nil {
		s.journal.AppendTerminal(uint64(id), outcome, reason)
	}
}

// addSubgraphs registers a batch of subgraph specs with the scheduler,
// stopping at the first error. The caller rolls back with CancelRequest.
func (m *mgr) addSubgraphs(specs []core.SubgraphSpec) error {
	for _, spec := range specs {
		if m.admitFault != nil {
			if err := m.admitFault(spec); err != nil {
				return err
			}
		}
		if _, err := m.sched.AddSubgraph(spec); err != nil {
			return err
		}
	}
	return nil
}

// terminate resolves a live request early with ErrCancelled or ErrExpired.
func (m *mgr) terminate(r *request, cause error) bool {
	if _, live := m.reqs[r.id]; !live {
		return false
	}
	kind := obsv.KindCancel
	jOutcome := journal.OutcomeCancelled
	if errors.Is(cause, ErrExpired) {
		kind = obsv.KindExpire
		jOutcome = journal.OutcomeExpired
	}
	m.end(r, kind, jOutcome, cause)
	return true
}

// complete consumes one worker completion record: fail or advance each
// executed row's request, release successor subgraphs, resolve finished
// requests, then retire the task (which unpins its subgraphs and frees a
// slot on its worker's channel).
func (m *mgr) complete(rec completion) {
	s := m.s
	for _, ref := range rec.executed {
		r := ref.req
		if _, live := m.reqs[r.id]; !live {
			// Resolved earlier (cancelled, expired, stopped, or a sibling
			// row's failure); nothing to advance.
			continue
		}
		if rec.err != nil {
			cell := s.cells[rec.task.TypeKey]
			m.fail(r, fmt.Errorf("server: executing %s: %w", cell.Name(), rec.err))
			continue
		}
		released, err := r.tracker.NodeDone(ref.node)
		if err != nil {
			m.fail(r, err)
			continue
		}
		m.queuedCells--
		s.obs.gauges(len(m.reqs), m.queuedCells)
		if len(released) > 0 {
			if !r.deadline.IsZero() {
				dl := r.deadline.UnixNano()
				for i := range released {
					released[i].Deadline = dl
				}
			}
			if err := m.addSubgraphs(released); err != nil {
				m.fail(r, err)
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
				// controllers and apply any MaxBatch moves.
				fe := r.firstExecNs.Load()
				if fe == 0 {
					fe = nowNs
				}
				moves := p.Completed(nowNs, r.cells,
					time.Duration(fe-r.admittedNs), time.Duration(nowNs-fe))
				for _, mv := range moves {
					s.obs.policyMaxBatch(mv.Key, mv.MaxBatch, nowNs)
					m.sched.SetMaxBatch(mv.Key, mv.MaxBatch)
				}
			}
			m.resolve(r, nil)
			m.completed = append(m.completed, r)
		}
	}
	// Retire the task after any CancelRequest issued above, preserving the
	// cancel-before-unpin order the scheduler's bookkeeping expects. The
	// scheduler reuses the task once retired, so read its worker first.
	w := rec.task.Worker
	if err := m.sched.TaskCompleted(rec.task.ID); err != nil {
		// A completion for a task the scheduler does not know indicates a
		// bug in this package; surface loudly.
		panic(err)
	}
	m.outstanding[w]--
	for i, r := range m.completed {
		r.release()
		m.completed[i] = nil
	}
	m.completed = m.completed[:0]
	if rec.refsBuf != nil {
		putExecRefs(rec.refsBuf)
	}
}

// fail finalizes a request with an execution error, purging its queued work
// from the scheduler.
func (m *mgr) fail(r *request, err error) {
	if _, live := m.reqs[r.id]; live {
		m.end(r, obsv.KindFail, journal.OutcomeFailed, err)
	}
}

// end resolves a live request before completion: its queued work is purged
// from the scheduler, the outcome is recorded and journaled, and waiters are
// released.
func (m *mgr) end(r *request, kind obsv.Kind, outcome journal.Outcome, err error) {
	m.sched.CancelRequest(r.id)
	m.s.obs.terminal(r, kind, time.Now().UnixNano())
	m.s.jterminal(r.id, outcome, err.Error())
	m.resolve(r, err)
}

// expireDue expires every request whose deadline has passed.
func (m *mgr) expireDue() {
	now := time.Now()
	for len(m.deadline) > 0 && !m.deadline[0].at.After(now) {
		r := heap.Pop(&m.deadline).(deadlineEntry).r
		if _, live := m.reqs[r.id]; live {
			m.end(r, obsv.KindExpire, journal.OutcomeExpired,
				fmt.Errorf("%w: deadline %v passed", ErrExpired, r.deadline.Format(time.RFC3339Nano)))
		}
	}
}

// rearm points the deadline timer at the earliest live deadline, discarding
// entries of already-resolved requests on the way.
func (m *mgr) rearm() {
	for len(m.deadline) > 0 {
		if _, live := m.reqs[m.deadline[0].r.id]; live {
			break
		}
		heap.Pop(&m.deadline)
	}
	if m.timerArmed && !m.timer.Stop() {
		<-m.timer.C
	}
	m.timerArmed = false
	if len(m.deadline) > 0 {
		m.timer.Reset(time.Until(m.deadline[0].at))
		m.timerArmed = true
	}
}

// resolve is the single exit point of a live request: it records the
// outcome, updates backlog accounting, and releases waiters — in that order,
// so a caller woken by Done already sees the request gone from Stats and
// Health. The caller has already classified the outcome (counter + span
// record).
func (m *mgr) resolve(r *request, err error) {
	s := m.s
	r.err = err
	r.resolved.Store(true)
	delete(m.reqs, r.id)
	s.liveMu.Lock()
	delete(s.live, r.id)
	s.liveMu.Unlock()
	m.queuedCells -= r.tracker.Remaining()
	s.obs.gauges(len(m.reqs), m.queuedCells)
	close(r.done)
	m.maybeDrained()
}

// drain switches to draining mode: admissions shed, live work runs out.
func (m *mgr) drain() {
	if !m.stopped && !m.draining {
		m.draining = true
		m.s.draining.Store(true)
	}
	m.maybeDrained()
}

// maybeDrained closes Server.drained once a drain (or stop) has no live
// requests left.
func (m *mgr) maybeDrained() {
	if m.drainClosed || len(m.reqs) > 0 || (!m.draining && !m.stopped) {
		return
	}
	m.drainClosed = true
	close(m.s.drained)
}

// stop fails every live request with ErrStopped and ends dispatch. The
// manager itself exits only once every dispatched task's completion has been
// retired — that is what lets the scheduler's bookkeeping drain clean.
func (m *mgr) stop() {
	if m.stopped {
		return
	}
	m.stopped = true
	close(m.s.stopdCh)
	live := make([]*request, 0, len(m.reqs))
	for _, r := range m.reqs {
		live = append(live, r)
	}
	for _, r := range live {
		m.end(r, obsv.KindFail, journal.OutcomeFailed, ErrStopped)
	}
	m.maybeDrained()
}
