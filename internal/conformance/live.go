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
	// Workers is the pipeline worker count (default 2).
	Workers int
	// MaxBatch is the per-type maximum batch size (default 8).
	MaxBatch int
	// MaxTasksToSubmit is the per-round dispatch bound (default 3).
	MaxTasksToSubmit int
	// TimeScale converts the workload's virtual durations to real ones
	// (real = virtual × TimeScale; default 1, i.e. virtual milliseconds run
	// as real milliseconds).
	TimeScale float64
	// Faults, when non-nil, is installed as the server's fault injector.
	Faults server.FaultInjector
	// Chaos forwards deliberate scheduler defects (the harness self-test).
	Chaos core.Chaos
	// MaxQueuedCells, when positive, enables admission control so the run
	// also exercises load shedding.
	MaxQueuedCells int
	// Policy, when enabled, installs the SLA feasibility rule, so runs
	// exercise policy-driven shedding under the full invariant set.
	Policy policy.Config
}

func (o LiveOpts) withDefaults() LiveOpts {
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 8
	}
	if o.MaxTasksToSubmit <= 0 {
		o.MaxTasksToSubmit = 3
	}
	if o.TimeScale <= 0 {
		o.TimeScale = 1
	}
	return o
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
		MaxQueuedCells:   opts.MaxQueuedCells,
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

// RunLive executes the workload against a freshly built live server:
// requests are submitted in arrival order with scaled inter-arrival gaps,
// cancellations and deadlines follow the workload's schedule, and the run
// ends only after every submitted request has resolved.
func RunLive(m *Model, w *Workload, opts LiveOpts) (*LiveResult, error) {
	opts = opts.withDefaults()
	var log taskLog
	srv, err := server.New(serverConfig(m, opts, &log))
	if err != nil {
		return nil, err
	}
	defer srv.Stop()

	scale := func(d time.Duration) time.Duration {
		return time.Duration(float64(d) * opts.TimeScale)
	}

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

	type admitted struct {
		idx    int
		handle *server.Handle
	}
	var handles []admitted
	var cancels sync.WaitGroup
	start := time.Now()
	for _, r := range w.Reqs {
		// Open-loop arrivals: sleep until the request's scaled arrival time.
		if wait := scale(r.Arrival) - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		g, err := m.BuildGraph(r)
		if err != nil {
			return nil, fmt.Errorf("conformance: building request %d: %w", r.Index, err)
		}
		var so server.SubmitOpts
		if r.Deadline > 0 {
			so.Deadline = time.Now().Add(scale(r.Deadline))
		}
		h, err := srv.SubmitAsyncOpts(g, so)
		if err != nil {
			// Never admitted: overload shed, drain, or dead-on-arrival
			// deadline. All count as Shed for conservation purposes.
			res.Outcome[r.Index] = OutcomeShed
			res.Errs[r.Index] = err
			continue
		}
		res.IDs[r.Index] = h.ID()
		res.RevIDs[h.ID()] = r.Index
		handles = append(handles, admitted{idx: r.Index, handle: h})
		if r.CancelAfter > 0 {
			cancels.Add(1)
			delay := scale(r.CancelAfter)
			go func(h *server.Handle) {
				defer cancels.Done()
				time.Sleep(delay)
				h.Cancel()
			}(h)
		}
	}

	for _, a := range handles {
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
	cancels.Wait()

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
