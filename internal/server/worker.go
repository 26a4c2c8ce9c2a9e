package server

import (
	"fmt"
	"time"

	"batchmaker/internal/core"
	"batchmaker/internal/obsv"
	"batchmaker/internal/tensor"
)

// typeExec caches one worker's per-cell-type execution resources: the
// shared type record, the input/output name lists (so the hot loop never
// re-allocates them), the reused input/output tensor maps, and the metric
// cells this worker is the only writer of.
type typeExec struct {
	*cellType
	exec     *obsv.ExecMetrics // this worker's task/cell counters for the type
	inNames  []string
	outNames []string
	inputs   map[string]*tensor.Tensor
	outs     map[string]*tensor.Tensor
	// outRows is the current task's batched outputs in outNames order, so
	// the scatter addresses them by index like the request's rows.
	outRows []*tensor.Tensor
}

// workerExec is one worker's reusable execution state: the scratch arena
// every per-task intermediate is carved from, the per-type caches, the
// executed-rows record, the row-pointer gather scratch, and the row buffer
// lent to Config.TaskObserver. Together with per-request output rows
// preallocated at admission, it makes the steady-state task loop — gather,
// step, scatter — free of heap allocations (§4.3's memory-copy step run at
// memcpy speed, not allocator speed).
type workerExec struct {
	arena *tensor.Arena
	types []typeExec // indexed by core.TypeID
	refs  []execRef
	rows  [][]*tensor.Tensor
	seen  []core.NodeRef
}

// newWorkerExec builds worker id's execution state, with its resources for
// every registered cell type.
func (s *Server) newWorkerExec(id int) *workerExec {
	w := &workerExec{
		arena: tensor.NewArena(0),
		types: make([]typeExec, len(s.types)),
	}
	for t := range s.types {
		ct := &s.types[t]
		w.types[t] = typeExec{
			cellType: ct,
			exec:     &s.obs.sm.Exec[id][t],
			inNames:  ct.cell.InputNames(),
			outNames: ct.cell.OutputNames(),
			inputs:   make(map[string]*tensor.Tensor),
			outs:     make(map[string]*tensor.Tensor),
			outRows:  make([]*tensor.Tensor, len(ct.widths)),
		}
	}
	return w
}

// scratch returns per-input row-pointer slices with capacity for n rows.
func (w *workerExec) scratch(inputs, n int) [][]*tensor.Tensor {
	for len(w.rows) < inputs {
		w.rows = append(w.rows, nil)
	}
	for i := 0; i < inputs; i++ {
		if cap(w.rows[i]) < n {
			w.rows[i] = make([]*tensor.Tensor, 0, 2*n)
		}
		w.rows[i] = w.rows[i][:n]
	}
	return w.rows[:inputs]
}

// rowWidth returns the column count of a one-row tensor (rank-1 or [1, c]).
func rowWidth(t *tensor.Tensor) int {
	if t.Rank() == 1 {
		return t.Dim(0)
	}
	return t.Dim(t.Rank() - 1)
}

// workerLoop is one GPU worker: it executes the tasks on its channel in
// FIFO order (§4.2) and retires each under mgr.mu, whose tail forms this
// worker's next round as soon as its channel is empty. The tail closes the
// channel at shutdown, once every dispatched task has been retired.
func (s *Server) workerLoop(id int, tasks <-chan *core.Task) {
	defer s.wg.Done()
	ws := s.newWorkerExec(id)
	m := s.m
	for task := range tasks {
		refs, elapsed, err := s.execTask(id, task, ws)
		m.mu.Lock()
		m.complete(task, refs, elapsed, err)
		m.unlock()
		// Drop the row pointers so the record does not pin resolved
		// requests until the next task overwrites it.
		clear(refs)
	}
}

// execTask gathers the batched inputs, runs the cell, and scatters the
// outputs into per-request state, outside mgr.mu. It returns the rows it
// executed (valid until the worker's next task), the time gather and step
// took, and the step error. The scatter happens here — not when the task
// is retired — because intra-subgraph successors are released at submit
// time and rely on FIFO execution on the same worker: a successor's gather
// must observe its dependency's scatter, exactly like consecutive kernels
// on one GPU stream. Dependency tracking and resolution stay with
// mgr.complete.
func (s *Server) execTask(id int, task *core.Task, ws *workerExec) ([]execRef, time.Duration, error) {
	te := &ws.types[task.Type]
	ws.arena.Reset()
	now := time.Now()
	refs := ws.refs[:0]
	s.liveMu.RLock()
	for _, nr := range task.Nodes {
		r := s.live[nr.Req]
		if r == nil || r.dead() {
			// The request resolved earlier (cancelled, expired, failed, or
			// the server stopped) or a sibling task's failure poisoned it;
			// skip its rows but keep the rest of the batch.
			continue
		}
		if !r.deadline.IsZero() && now.After(r.deadline) {
			// Past-deadline rows stop consuming batch slots immediately;
			// the manager's timer resolves the request.
			continue
		}
		refs = append(refs, execRef{req: r, node: nr.Node})
	}
	s.liveMu.RUnlock()
	ws.refs = refs
	if len(refs) == 0 {
		// Nothing left to run: the task is still retired so the
		// scheduler's pin and in-flight bookkeeping drain clean.
		return nil, 0, nil
	}

	// The batch is now final: mark each surviving request's first execution
	// (the queuing→computation boundary of the paper's latency split).
	s.obs.firstExec(id, refs, now.UnixNano())

	// Gather: assemble contiguous batched inputs from scattered per-request
	// rows (the memory-copy step of §4.3) into exact-fit arena buffers. Row
	// pointers are read under each request's state lock; the copies happen
	// outside it (completed outputs are immutable).
	rowsByName := ws.scratch(len(te.inNames), len(refs))
	for i, ref := range refs {
		ref.req.stateMu.Lock()
		for j := range te.inNames {
			rowsByName[j][i] = ref.req.state.InputRow(ref.node, j)
		}
		ref.req.state.MarkIssued(ref.node)
		ref.req.stateMu.Unlock()
	}
	for j, name := range te.inNames {
		buf := ws.arena.Get(len(refs), rowWidth(rowsByName[j][0]))
		tensor.FillRows(buf, rowsByName[j])
		te.inputs[name] = buf
	}

	// Execute: this is the GPU kernel, with fault injection and panic
	// containment around the raw step.
	stepErr := s.stepOnce(te, task, len(refs), ws.arena)

	elapsed := time.Since(now)
	s.obs.taskExec(id, task, te, len(refs), int64(elapsed),
		ws.arena.HighWaterBytes(), now.UnixNano()+int64(elapsed))
	if s.cfg.TaskObserver != nil {
		ws.seen = ws.seen[:0]
		for _, ref := range refs {
			ws.seen = append(ws.seen, core.NodeRef{Req: ref.req.id, Node: ref.node})
		}
		s.cfg.TaskObserver(id, task.TypeKey, ws.seen)
	}

	if stepErr != nil {
		// Poison before the failure is retired: successor tasks already
		// queued behind this one must not gather rows whose dependencies
		// never completed.
		for _, ref := range refs {
			ref.req.poisoned.Store(true)
		}
		return refs, elapsed, stepErr
	}

	// Scatter: copy each batch-output row into the request's output rows
	// (carved at admission) and complete the nodes, so successor gathers —
	// on this worker via FIFO, on others via mgr.complete's release — see
	// finished inputs. Outputs nothing reads have no row and are skipped.
	for i, ref := range refs {
		if ref.req.resolved.Load() {
			// Resolved mid-execution; its state will never be read.
			continue
		}
		ref.req.stateMu.Lock()
		for o, batched := range te.outRows {
			if row := ref.req.state.OutputRow(ref.node, o); row != nil {
				copy(row.Data(), batched.RowSlice(i))
			}
		}
		ref.req.state.Complete(ref.node)
		ref.req.stateMu.Unlock()
	}
	return refs, elapsed, nil
}

// stepOnce executes one task: the cell's StepInto into arena-backed output
// buffers, left in te.outRows. A panicking cell (injected or real) is
// recovered here — the worker survives, the batch's requests fail, and the
// cell's quarantine counter grows.
func (s *Server) stepOnce(te *typeExec, task *core.Task, batch int, arena *tensor.Arena) (err error) {
	defer func() {
		if p := recover(); p != nil {
			s.obs.cellPanic(task, batch)
			err = fmt.Errorf("%w: %s: %v", ErrCellPanic, te.cell.Name(), p)
		}
	}()
	if s.faults != nil {
		switch d := s.faults.Inject(task.TypeKey, batch); d.Kind {
		case FaultDelay:
			time.Sleep(d.Delay)
		case FaultError:
			if d.Err != nil {
				return d.Err
			}
			return ErrInjected
		case FaultPanic:
			panic(ErrInjected)
		}
	}
	for o, name := range te.outNames {
		te.outRows[o] = arena.Get(batch, te.widths[o])
		te.outs[name] = te.outRows[o]
	}
	return te.cell.StepInto(te.inputs, te.outs, arena)
}
