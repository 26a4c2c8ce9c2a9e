package conformance

import (
	"fmt"
	"sort"
	"time"

	"batchmaker/internal/core"
	"batchmaker/internal/device"
	"batchmaker/internal/obsv"
	"batchmaker/internal/sim"
)

// SimOpts configures one virtual-clock conformance run: the scheduling
// fields of LiveOpts, each of which must be positive.
type SimOpts struct {
	Workers          int
	MaxBatch         int
	MaxTasksToSubmit int
}

// SimResult is one deterministic virtual-time run: the full event timeline
// (identical across runs of the same workload — that is the determinism
// test), the trace the shared invariants read, and every violation they
// found.
type SimResult struct {
	Trace
	// Events is the virtual-time event log: lifecycle records at their
	// instants and each task at the instant it was issued.
	Events []string
	// Violations lists invariant breaches observed in the run.
	Violations []Violation
}

// RunSim replays the workload through internal/sim's BatchMaker driver:
// the real scheduler (internal/core) and dependency tracker on the
// workload's shapes, with a virtual clock and one simulated device whose
// Workers streams stand for the live workers. As in the live server, a
// deadline both orders the EDF queues and expires the request. The driver
// itself fails the run on a wedge (a request never resolves), on
// starvation (every worker idle beside ready work) and on an unclean
// scheduler; the checks here observe its task log and lifecycle records.
// Same model + workload + opts ⇒ byte-identical Events.
func RunSim(m *Model, w *Workload, opts SimOpts) (*SimResult, error) {
	b := opts.MaxBatch
	obs := obsv.NewObserver(nil, 2*len(w.Reqs)) // each request's admit and terminal record
	res := &SimResult{Trace: Trace{MaxBatch: b, SchedulerClean: true}}
	cfg := sim.BatchMakerConfig{
		Model: sim.Union("conformance",
			sim.NewLSTMModel(b, 1), sim.NewSeq2SeqModel(b, b, 1), sim.NewTreeModel(b, 1)),
		NumGPUs:          opts.Workers,
		Cluster:          device.NewCluster(1),
		Overheads:        device.DefaultOverheads(),
		MaxTasksToSubmit: opts.MaxTasksToSubmit,
		Observer:         obs,
		TaskObserver: func(worker int, typeKey string, rows []core.NodeRef, issued, retired time.Duration) {
			res.Tasks = append(res.Tasks, ExecutedTask{Worker: worker, TypeKey: typeKey,
				Rows: append([]core.NodeRef(nil), rows...), Issued: issued, Retired: retired})
		},
	}
	if _, err := sim.RunSchedule(cfg, w.Schedule(), sim.RunConfig{}); err != nil {
		return nil, err
	}

	// Every arrival is admitted, in arrival order.
	res.Lifecycle, res.LifecycleDropped = lifecycle(obs)
	res.IDs = make(map[int]core.RequestID, len(w.Reqs))
	res.RevIDs = make(map[core.RequestID]int, len(w.Reqs))
	type event struct {
		t    time.Duration
		line string
	}
	var evs []event
	for _, rec := range res.Lifecycle {
		id := core.RequestID(rec.Req)
		line := ""
		if rec.Kind == obsv.KindAdmit {
			r := w.Reqs[len(res.IDs)]
			res.IDs[r.Index], res.RevIDs[id] = id, r.Index
			line = fmt.Sprintf("admit req=%d cells=%d", r.Index, r.Cells())
		} else {
			for out, kind := range terminalKinds {
				if kind == rec.Kind {
					line = fmt.Sprintf("%s req=%d", out, res.RevIDs[id])
				}
			}
		}
		evs = append(evs, event{time.Duration(rec.T0), line})
	}

	// Each outcome is read off the task log, not the terminal records
	// checkTrace holds it against: a request all of whose cells ran
	// completed, any other ended at the earlier of its cancel and its
	// expiry (the sim fails no request).
	ran := make(map[int]int, len(w.Reqs))
	for _, task := range res.Tasks {
		for _, ref := range task.Rows {
			ran[res.RevIDs[ref.Req]]++
		}
	}
	res.Outcome = make(map[int]Outcome, len(w.Reqs))
	for _, r := range w.Reqs {
		if _, ok := res.IDs[r.Index]; !ok {
			continue // never admitted: checkTrace reports it lost
		}
		switch {
		case ran[r.Index] == r.Cells():
			res.Outcome[r.Index] = OutcomeCompleted
		case r.Deadline > 0 && (r.CancelAfter == 0 || r.Deadline < r.CancelAfter):
			res.Outcome[r.Index] = OutcomeExpired
		case r.CancelAfter > 0:
			res.Outcome[r.Index] = OutcomeCancelled
		default:
			res.Outcome[r.Index] = OutcomeFailed
		}
	}
	for _, task := range res.Tasks {
		rows := make([]string, len(task.Rows))
		for i, ref := range task.Rows {
			rows[i] = fmt.Sprintf("%d/%d", res.RevIDs[ref.Req], ref.Node)
		}
		evs = append(evs, event{task.Issued, fmt.Sprintf("task worker=%d type=%s batch=%d rows=%v",
			task.Worker, task.TypeKey, len(rows), rows)})
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].t < evs[j].t })
	for _, e := range evs {
		res.Events = append(res.Events, fmt.Sprintf("t=%-12v %s", e.t, e.line))
	}

	res.Violations = append(checkTrace(m, w, &res.Trace), checkPinning(w, &res.Trace)...)
	return res, nil
}

// checkPinning holds the sim's task log to pinning: a chain or seq2seq
// request is one sequential subgraph per segment, so its rows must never be
// in flight on two workers at once (§4.3's same-stream FIFO argument).
// Tasks are logged as they retire, so comparing each row with its request's
// previous one finds every such overlap at least once.
func checkPinning(w *Workload, t *Trace) []Violation {
	var vs []Violation
	trees := make(map[int]bool, len(w.Reqs))
	for _, r := range w.Reqs {
		trees[r.Index] = r.Shape.Kind == sim.KindTree
	}
	prev := make(map[int]ExecutedTask)
	for _, task := range t.Tasks {
		for _, ref := range task.Rows {
			idx := t.RevIDs[ref.Req]
			if p, ok := prev[idx]; ok && !trees[idx] && p.Worker != task.Worker && p.Retired > task.Issued {
				vs = append(vs, Violation{Kind: "sim-pin", Req: idx,
					Detail: fmt.Sprintf("rows in flight on workers %d and %d", p.Worker, task.Worker)})
			}
			prev[idx] = task
		}
	}
	return vs
}
