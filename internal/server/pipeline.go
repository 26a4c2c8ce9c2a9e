package server

import (
	"container/heap"
	"errors"
	"fmt"
	"sync"
	"time"

	"batchmaker/internal/cellgraph"
	"batchmaker/internal/core"
	"batchmaker/internal/journal"
	"batchmaker/internal/obsv"
)

// execRef names one gathered row of a batched task: which request, which
// node. Workers record the refs they actually executed so complete can
// advance exactly those dependencies.
type execRef struct {
	req  *request
	node cellgraph.NodeID
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

// mgr is §4.2's manager — request processor and scheduler in one — run as
// a monitor: it owns admission, dependency tracking, deadline expiry,
// request resolution and the core.Scheduler, and every method runs under
// mu. It has no goroutine of its own. Callers (admission, cancel, drain,
// stop), workers (after each task) and the deadline timer each take mu,
// call one method, and leave through unlock, which dispatches batched tasks
// onto the bounded per-worker channels. Every lifecycle transition
// happening under mu is what makes "exactly one terminal state" hold.
type mgr struct {
	mu       sync.Mutex
	s        *Server
	sched    *core.Scheduler
	reqs     map[core.RequestID]*request
	deadline deadlineHeap
	// timer runs tick when the earliest live deadline passes; armedAt is the
	// deadline it is set for (zero: not armed).
	timer       *time.Timer
	armedAt     time.Time
	queuedCells int
	stopped     bool
	draining    bool
	drainClosed bool
	// closed records that the worker channels have been closed.
	closed bool
	// outstanding[w] counts tasks dispatched to worker w that have not been
	// retired yet.
	outstanding []int
	rr          int
	admitFault  func(core.SubgraphSpec) error
	// completed holds the requests the task being retired finished; their
	// blocks go back once the task has retired.
	completed []*request
}

func newMgr(s *Server, sched *core.Scheduler) *mgr {
	m := &mgr{
		s:           s,
		sched:       sched,
		reqs:        make(map[core.RequestID]*request),
		outstanding: make([]int, len(s.taskChans)),
	}
	m.timer = time.AfterFunc(time.Hour, m.tick)
	m.timer.Stop()
	return m
}

// unlock is every entry point's shared tail: dispatch unless stopped,
// mirror the gauges, close the worker channels once the server is stopped
// and no task is in flight, then release mu.
func (m *mgr) unlock() {
	if !m.stopped {
		m.dispatch()
	}
	m.mirror()
	if m.stopped && !m.closed && m.sched.InflightTasks() == 0 {
		// Every dispatched task has been retired, so the worker channels are
		// empty and no worker will enter again: closing them releases the
		// workers, and Stop's wg.Wait joins them.
		m.closed = true
		for _, ch := range m.s.taskChans {
			close(ch)
		}
	}
	m.mu.Unlock()
}

// tick is the deadline timer's entry point.
func (m *mgr) tick() {
	m.mu.Lock()
	if !m.stopped {
		m.armedAt = time.Time{}
		m.expireDue()
		m.rearm()
	}
	m.unlock()
}

// dispatch hands batched tasks to every worker whose channel is empty,
// round-robin, until the scheduler forms no more. A worker's channel holds
// one scheduling round, so a dispatch send never blocks — which is what
// makes sending under mu safe.
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
// Stats and SchedulerClean need no lock.
func (m *mgr) mirror() {
	m.s.schedInflight.Store(int64(m.sched.InflightTasks()))
	m.s.schedLive.Store(int64(m.sched.LiveSubgraphs()))
	m.s.obs.mirrorScheduler(m.sched, m.outstanding)
}

// admit performs the admission decision and registers the request. The
// request becomes worker-visible before the next dispatch, so every task
// that carries its rows finds it in Server.live.
func (m *mgr) admit(r *request, specs []core.SubgraphSpec) error {
	s := m.s
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
	if p := s.policy; p != nil {
		// SLA feasibility: shed when the backlog, priced per cell on
		// measured task time and spread over the workers, outlasts the SLA.
		nowNs := time.Now().UnixNano()
		workers := s.cfg.Workers
		if d := p.Admit(nowNs, (m.queuedCells+workers-1)/workers); !d.Admit {
			s.obs.policyShed(nowNs)
			s.obs.reject(true)
			return &OverloadError{EstWait: d.EstWait, RetryAfter: d.RetryAfter}
		}
	}
	if !r.deadline.IsZero() {
		// Stamp the SLA expiry onto the specs so the scheduler's EDF ready
		// queues order this request's cells by urgency within their type.
		dl := r.deadline.UnixNano()
		for i := range specs {
			specs[i].Deadline = dl
		}
	}
	r.admittedNs = time.Now().UnixNano()
	if err := m.addSubgraphs(specs); err != nil {
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
		// Enqueued under mu, so the admit record always precedes this
		// request's terminal record in the journal's FIFO. The enqueue never
		// blocks; only the submitting caller waits on jwait.
		var dl int64
		if !r.deadline.IsZero() {
			dl = r.deadline.UnixNano()
		}
		r.jwait = s.journal.AppendAdmit(uint64(r.id), r.payload, dl)
	}
	return nil
}

// jterminal journals a terminal outcome. Called at every terminal site,
// always under mgr.mu, before resolve.
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

// complete retires one executed task: fail or advance each executed row's
// request, release successor subgraphs, resolve finished requests, then
// retire the task (which unpins its subgraphs and frees a slot on its
// worker's channel). elapsed is the task's execution time and stepErr its
// step error, if any.
func (m *mgr) complete(task *core.Task, executed []execRef, elapsed time.Duration, stepErr error) {
	s := m.s
	if p := s.policy; p != nil && stepErr == nil {
		p.Completed(time.Now().UnixNano(), len(executed), 0, elapsed)
	}
	for _, ref := range executed {
		r := ref.req
		if _, live := m.reqs[r.id]; !live {
			// Resolved earlier (cancelled, expired, stopped, or a sibling
			// row's failure); nothing to advance.
			continue
		}
		if stepErr != nil {
			m.fail(r, fmt.Errorf("server: executing %s: %w", s.types[task.Type].cell.Name(), stepErr))
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
			m.resolve(r, nil)
			m.completed = append(m.completed, r)
		}
	}
	// Retire the task after any CancelRequest issued above, preserving the
	// cancel-before-unpin order the scheduler's bookkeeping expects. The
	// scheduler reuses the task once retired, so read its worker first.
	w := task.Worker
	if err := m.sched.TaskCompleted(task.ID); err != nil {
		// A completion for a task the scheduler does not know indicates a
		// bug in this package; surface loudly.
		panic(err)
	}
	m.outstanding[w]--
	for i, r := range m.completed {
		s.blocks.put(r.release())
		m.completed[i] = nil
	}
	m.completed = m.completed[:0]
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
// entries of already-resolved requests on the way. The timer is reset only
// when that deadline changes.
func (m *mgr) rearm() {
	for len(m.deadline) > 0 {
		if _, live := m.reqs[m.deadline[0].r.id]; live {
			break
		}
		heap.Pop(&m.deadline)
	}
	if len(m.deadline) == 0 {
		if !m.armedAt.IsZero() {
			m.timer.Stop()
			m.armedAt = time.Time{}
		}
		return
	}
	if at := m.deadline[0].at; !at.Equal(m.armedAt) {
		m.armedAt = at
		m.timer.Reset(time.Until(at))
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

// stop fails every live request with ErrStopped, stops the deadline timer
// and ends dispatch. The worker channels close only once every dispatched
// task has been retired (unlock) — that is what lets the scheduler's
// bookkeeping drain clean.
func (m *mgr) stop() {
	if m.stopped {
		return
	}
	m.stopped = true
	m.timer.Stop()
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
