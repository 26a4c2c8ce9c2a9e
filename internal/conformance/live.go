package conformance

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"batchmaker/internal/core"
	"batchmaker/internal/obsv"
	"batchmaker/internal/policy"
	"batchmaker/internal/server"
	"batchmaker/internal/sim"
	"batchmaker/internal/tensor"
)

// Outcome is a request's terminal state as observed by its caller.
type Outcome int

// Outcomes. Shed means the submission never entered the system (admission
// control, drain, or dead-on-arrival deadline); the others are terminal
// states of admitted requests.
const (
	OutcomeCompleted Outcome = iota
	OutcomeCancelled
	OutcomeExpired
	OutcomeFailed
	OutcomeShed
)

func (o Outcome) String() string {
	switch o {
	case OutcomeCompleted:
		return "completed"
	case OutcomeCancelled:
		return "cancelled"
	case OutcomeExpired:
		return "expired"
	case OutcomeFailed:
		return "failed"
	case OutcomeShed:
		return "shed"
	}
	return fmt.Sprintf("outcome(%d)", int(o))
}

// LiveOpts configures one live-engine conformance run.
type LiveOpts struct {
	// Workers is the pipeline worker count; it must be positive.
	Workers int
	// MaxBatch is the per-type maximum batch size; it must be positive.
	MaxBatch int
	// MaxTasksToSubmit is the per-round dispatch bound; it must be positive.
	MaxTasksToSubmit int
	// Faults, when non-nil, is installed as the server's fault injector.
	Faults server.FaultInjector
	// Chaos forwards deliberate scheduler defects (the harness self-test).
	Chaos core.Chaos
	// Policy, when enabled, installs the SLA feasibility rule, so runs
	// exercise policy-driven shedding under the full invariant set.
	Policy policy.Config
}

// LiveResult is everything the invariant checker needs from one live run.
type LiveResult struct {
	Trace
	// Errs and Results are keyed by workload request Index.
	Errs    map[int]error
	Results map[int]map[string]*tensor.Tensor

	Stats server.Stats
	// Metrics is the server's metric cells (the families a live /metrics
	// scrape exposes), readable after the run.
	Metrics *obsv.ServingMetrics
	// Telemetry lists disagreements between the server's metric registry
	// and the run's ground truth (see reconcile); Check reports them.
	Telemetry []Violation
}

// ExecutedTask is one TaskObserver callback: the worker, the cell type and
// the (request, node) rows of one executed batched task. Only the
// simulator knows the virtual instants the task was issued and retired.
type ExecutedTask struct {
	Worker          int
	TypeKey         string
	Rows            []core.NodeRef
	Issued, Retired time.Duration
}

// taskLog serialises the workers' concurrent TaskObserver callbacks into one
// ordered log. A producer's callback returns before its completion is
// published, so it is always logged before any consumer's.
type taskLog struct {
	mu    sync.Mutex
	tasks []ExecutedTask
}

func (l *taskLog) observe(worker int, typeKey string, rows []core.NodeRef) {
	l.mu.Lock()
	defer l.mu.Unlock()
	// rows is the worker's reused buffer: copy before it returns.
	l.tasks = append(l.tasks, ExecutedTask{Worker: worker, TypeKey: typeKey, Rows: append([]core.NodeRef(nil), rows...)})
}

// lifecycle extracts the admit/terminal records of an engine's span rings,
// ordered by time, and the request-processor ring's overwrite count.
func lifecycle(o *obsv.Observer) (recs []obsv.Record, dropped uint64) {
	for _, rec := range o.Snapshot() {
		switch rec.Kind {
		case obsv.KindAdmit, obsv.KindComplete, obsv.KindFail, obsv.KindExpire, obsv.KindCancel:
			recs = append(recs, rec)
		}
	}
	for _, r := range o.Rings() {
		if r.Name() == "rp" {
			dropped = r.Dropped()
		}
	}
	return recs, dropped
}

// serverConfig builds the five-cell live server a run drives; executed
// tasks are reported to log.
func serverConfig(m *Model, opts LiveOpts, log *taskLog) server.Config {
	return server.Config{
		Workers:          opts.Workers,
		MaxTasksToSubmit: opts.MaxTasksToSubmit,
		TaskObserver:     log.observe,
		Faults:           opts.Faults,
		SchedulerChaos:   opts.Chaos,
		Policy:           opts.Policy,
		Cells: []server.CellSpec{
			{Cell: m.LSTM, MaxBatch: opts.MaxBatch},
			{Cell: m.Enc, MaxBatch: opts.MaxBatch, Priority: 0},
			{Cell: m.Dec, MaxBatch: opts.MaxBatch, Priority: 1},
			{Cell: m.Leaf, MaxBatch: opts.MaxBatch, Priority: 0},
			{Cell: m.Internal, MaxBatch: opts.MaxBatch, Priority: 1},
		},
	}
}

// admitted is one submission the server accepted: its workload index and
// its handle.
type admitted struct {
	idx    int
	handle *server.Handle
}

// player is one workload played against a live server through sim.Play.
type player struct {
	m       *Model
	srv     *server.Server
	handles []admitted
	cancels sync.WaitGroup
	// err is the first graph that did not build; nothing is submitted
	// after it.
	err error
}

// submit is the one live submit path. It builds r's graph and submits it
// for arrival a with so's deadline at the scheduled expiry t0 + a.Expire;
// an admitted request's handle is recorded and its cancel scheduled at
// t0 + a.Cancel. It returns the server's refusal, nil once admitted.
func (p *player) submit(r *Request, a sim.Arrival, t0 time.Time, so server.SubmitOpts) error {
	if p.err != nil {
		return p.err
	}
	g, err := p.m.BuildGraph(r)
	if err != nil {
		p.err = fmt.Errorf("conformance: building request %d: %w", r.Index, err)
		return p.err
	}
	if a.Expire > 0 {
		so.Deadline = t0.Add(a.Expire)
	}
	h, err := p.srv.SubmitAsyncOpts(g, so)
	if err != nil {
		return err
	}
	p.handles = append(p.handles, admitted{idx: r.Index, handle: h})
	if a.Cancel > 0 {
		p.cancels.Add(1)
		time.AfterFunc(time.Until(t0.Add(a.Cancel)), func() {
			defer p.cancels.Done()
			h.Cancel()
		})
	}
	return nil
}

// RunLive executes the workload against a freshly built live server: it
// plays w.Schedule() through sim.Play, so requests are submitted at their
// arrival instants and their cancels and deadlines fall at the scheduled
// arrival plus their offsets, and the run ends only after every submitted
// request has resolved.
func RunLive(m *Model, w *Workload, opts LiveOpts) (*LiveResult, error) {
	var log taskLog
	srv, err := server.New(serverConfig(m, opts, &log))
	if err != nil {
		return nil, err
	}
	defer srv.Stop()

	res := &LiveResult{
		Trace: Trace{
			MaxBatch: opts.MaxBatch,
			Outcome:  make(map[int]Outcome, len(w.Reqs)),
			IDs:      make(map[int]core.RequestID),
			RevIDs:   make(map[core.RequestID]int),
		},
		Errs:    make(map[int]error, len(w.Reqs)),
		Results: make(map[int]map[string]*tensor.Tensor),
	}

	p := &player{m: m, srv: srv}
	next := 0
	sim.Play(w.Schedule(), func(a sim.Arrival, t0 time.Time) {
		r := w.Reqs[next]
		next++
		if err := p.submit(r, a, t0, server.SubmitOpts{}); err != nil {
			// Never admitted: overload shed, drain, or dead-on-arrival
			// deadline. All count as Shed for conservation purposes.
			res.Outcome[r.Index] = OutcomeShed
			res.Errs[r.Index] = err
		}
	})
	if p.err != nil {
		return nil, p.err
	}

	for _, a := range p.handles {
		res.IDs[a.idx] = a.handle.ID()
		res.RevIDs[a.handle.ID()] = a.idx
		<-a.handle.Done()
		out, err := a.handle.Result()
		res.Errs[a.idx] = err
		switch {
		case err == nil:
			res.Outcome[a.idx] = OutcomeCompleted
			res.Results[a.idx] = out
		case errors.Is(err, server.ErrCancelled):
			res.Outcome[a.idx] = OutcomeCancelled
		case errors.Is(err, server.ErrExpired):
			res.Outcome[a.idx] = OutcomeExpired
		default:
			res.Outcome[a.idx] = OutcomeFailed
		}
	}
	p.cancels.Wait()

	// Graceful drain: no live requests remain, so this just flushes the
	// pipeline and stops it; the final stats mirror is the drained state.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		return nil, fmt.Errorf("conformance: drain: %w", err)
	}
	res.Stats = srv.Stats()
	res.Tasks = log.tasks
	res.Lifecycle, res.LifecycleDropped = lifecycle(srv.Observer())
	res.SchedulerClean = srv.SchedulerClean()
	res.Metrics = srv.Metrics()
	res.Telemetry = reconcile(res.Metrics.Registry(), res.Tasks)
	return res, nil
}
