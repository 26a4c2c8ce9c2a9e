package conformance

import (
	"fmt"
	"sort"

	"batchmaker/internal/cellgraph"
	"batchmaker/internal/core"
	"batchmaker/internal/obsv"
	"batchmaker/internal/tensor"
)

// Violation is one invariant breach. Req is the workload request index the
// breach is attributed to, or -1 for run-global violations.
type Violation struct {
	Kind   string
	Req    int
	Detail string
}

func (v Violation) String() string {
	if v.Req >= 0 {
		return fmt.Sprintf("[%s] req%d: %s", v.Kind, v.Req, v.Detail)
	}
	return fmt.Sprintf("[%s] %s", v.Kind, v.Detail)
}

// FormatViolations renders a violation list one per line.
func FormatViolations(vs []Violation) string {
	s := ""
	for _, v := range vs {
		s += "  " + v.String() + "\n"
	}
	return s
}

// Check applies every live-run invariant that must hold under any thread
// interleaving, using only artifacts of the run (outcomes, stats, the task
// log, lifecycle span records) and the precomputed sequential oracle:
//
//   - outcome conservation: every workload request has exactly one terminal
//     state, and the caller-observed outcome counts equal the server's own
//     Outcomes counters;
//   - telemetry: the metric registry reconciles with the task log (see
//     reconcile);
//   - lifecycle: every admitted request has exactly one admit record and
//     exactly one terminal record, of the kind matching its outcome;
//   - exactly-once execution: no (request, node) row executes twice, rows
//     belong to admitted requests, and node IDs are in range;
//   - dependency order: every executed row's graph dependencies appear
//     strictly earlier in the task log (producers before consumers — the
//     observable form of the paper's same-stream FIFO argument);
//   - completion: a completed request executed its whole unfolded graph, and
//     its outputs are bit-identical to the sequential oracle;
//   - clean drain: the scheduler's queues, gauges and the server's
//     live-request and queued-cell counters all reached zero.
//
// It returns every violation found (empty means the run conformed).
func Check(m *Model, w *Workload, res *LiveResult, oracle map[int]map[string]*tensor.Tensor) []Violation {
	vs := append([]Violation(nil), res.Telemetry...)
	violate := func(kind string, req int, format string, a ...interface{}) {
		vs = append(vs, Violation{Kind: kind, Req: req, Detail: fmt.Sprintf(format, a...)})
	}

	// --- Outcome conservation -------------------------------------------
	counts := map[Outcome]int{}
	for _, r := range w.Reqs {
		out, ok := res.Outcome[r.Index]
		if !ok {
			violate("lost-request", r.Index, "no terminal state recorded")
			continue
		}
		counts[out]++
	}
	o := res.Stats.Outcomes
	admitted := len(w.Reqs) - counts[OutcomeShed]
	for _, c := range []struct {
		name     string
		observed int
		counter  int
	}{
		{"admitted", admitted, o.Admitted},
		{"completed", counts[OutcomeCompleted], o.Completed},
		{"cancelled", counts[OutcomeCancelled], o.Cancelled},
		{"expired", counts[OutcomeExpired], o.Expired},
		{"failed", counts[OutcomeFailed], o.Failed},
		{"rejected", counts[OutcomeShed], o.Rejected},
	} {
		if c.observed != c.counter {
			violate("counter-mismatch", -1, "%s: callers observed %d, server counted %d", c.name, c.observed, c.counter)
		}
	}
	if o.Resolved() != o.Admitted {
		violate("counter-mismatch", -1, "resolved %d != admitted %d", o.Resolved(), o.Admitted)
	}

	// --- Clean drain ----------------------------------------------------
	if !res.SchedulerClean {
		violate("unclean-drain", -1, "scheduler queues/gauges not empty after drain")
	}
	if res.Stats.LiveRequests != 0 {
		violate("unclean-drain", -1, "%d live requests after drain", res.Stats.LiveRequests)
	}
	if res.Stats.QueuedCells != 0 {
		violate("unclean-drain", -1, "%d queued cells after drain", res.Stats.QueuedCells)
	}

	// --- Numerics vs the sequential oracle ------------------------------
	for _, r := range w.Reqs {
		if res.Outcome[r.Index] != OutcomeCompleted {
			continue
		}
		want, got := oracle[r.Index], res.Results[r.Index]
		if got == nil {
			violate("numerics", r.Index, "completed with nil results")
			continue
		}
		if len(got) != len(want) {
			violate("numerics", r.Index, "result has %d outputs, oracle has %d", len(got), len(want))
			continue
		}
		for name, wt := range want {
			gt, ok := got[name]
			if !ok {
				violate("numerics", r.Index, "missing output %q", name)
				continue
			}
			if !gt.Equal(wt) {
				violate("numerics", r.Index, "output %q differs from sequential oracle", name)
			}
		}
	}

	// --- Task-log checks ------------------------------------------------

	// Per-request graph dependencies, rebuilt deterministically from the
	// workload (BuildGraph is a pure function of the request).
	deps := make(map[int][][]cellgraph.NodeID, len(res.IDs))
	cells := make(map[int]int, len(res.IDs))
	for _, r := range w.Reqs {
		if _, ok := res.IDs[r.Index]; !ok {
			continue
		}
		g, err := m.BuildGraph(r)
		if err != nil {
			violate("rebuild", r.Index, "graph rebuild failed: %v", err)
			continue
		}
		d := make([][]cellgraph.NodeID, len(g.Nodes))
		for _, n := range g.Nodes {
			d[n.ID] = n.Deps()
		}
		deps[r.Index] = d
		cells[r.Index] = len(g.Nodes)
	}

	executed := make(map[int]map[cellgraph.NodeID]bool, len(res.IDs))
	for _, task := range res.Tasks {
		if len(task.Rows) > res.MaxBatch {
			violate("batch-overflow", -1, "task of %d rows exceeds MaxBatch %d", len(task.Rows), res.MaxBatch)
		}
		for _, ref := range task.Rows {
			idx, ok := res.RevIDs[ref.Req]
			if !ok {
				violate("ghost-row", -1, "task executed row of unknown request id %d", ref.Req)
				continue
			}
			d := deps[idx]
			if d == nil {
				continue // rebuild failed, already reported
			}
			if int(ref.Node) < 0 || int(ref.Node) >= len(d) {
				violate("node-range", idx, "node %d out of range [0,%d)", ref.Node, len(d))
				continue
			}
			done := executed[idx]
			if done == nil {
				done = make(map[cellgraph.NodeID]bool)
				executed[idx] = done
			}
			if done[ref.Node] {
				violate("duplicate-exec", idx, "node %d executed twice", ref.Node)
			}
			// Dependency order: every producer must already be executed
			// — i.e. appear in a strictly earlier log entry. Rows of one
			// task never depend on each other (ready sets contain no
			// dependent pairs), so checking before marking is exact.
			for _, dep := range d[ref.Node] {
				if !done[dep] {
					violate("dependency-order", idx, "node %d executed before its dependency %d", ref.Node, dep)
				}
			}
			done[ref.Node] = true
		}
	}

	// --- Lifecycle checks (request processor's span ring) ---------------
	if res.LifecycleDropped > 0 {
		// The ring overwrote records; the checks below would report false
		// positives, so surface that instead.
		violate("ring-evicted", -1, "request-processor ring overwrote %d records", res.LifecycleDropped)
		return vs
	}
	admits := map[core.RequestID]int{}
	terminals := map[core.RequestID][]obsv.Kind{}
	for _, rec := range res.Lifecycle {
		if rec.Kind == obsv.KindAdmit {
			admits[core.RequestID(rec.Req)]++
		} else {
			terminals[core.RequestID(rec.Req)] = append(terminals[core.RequestID(rec.Req)], rec.Kind)
		}
	}

	// Exactly one admit and one terminal record per admitted request,
	// terminal kind matching the caller-observed outcome.
	wantKind := map[Outcome]obsv.Kind{
		OutcomeCompleted: obsv.KindComplete,
		OutcomeFailed:    obsv.KindFail,
		OutcomeExpired:   obsv.KindExpire,
		OutcomeCancelled: obsv.KindCancel,
	}
	idxs := make([]int, 0, len(res.IDs))
	for idx := range res.IDs {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	for _, idx := range idxs {
		id := res.IDs[idx]
		if n := admits[id]; n != 1 {
			violate("lifecycle", idx, "%d admit records (want 1)", n)
		}
		ts := terminals[id]
		if len(ts) != 1 {
			violate("lifecycle", idx, "%d terminal records %v (want 1)", len(ts), ts)
			continue
		}
		if want := wantKind[res.Outcome[idx]]; ts[0] != want {
			violate("lifecycle", idx, "terminal record %v but caller observed %v", ts[0], res.Outcome[idx])
		}
		// Completed requests must have executed their entire graph.
		if res.Outcome[idx] == OutcomeCompleted && len(executed[idx]) != cells[idx] {
			violate("conservation", idx, "completed with %d/%d cells executed", len(executed[idx]), cells[idx])
		}
	}
	// Requests never admitted must not appear in the ring at all.
	for id := range admits {
		if _, ok := res.RevIDs[id]; !ok {
			violate("ghost-request", -1, "ring admits unknown request id %d", id)
		}
	}
	return vs
}
