package server

import (
	"fmt"
	"sync"
	"time"

	"batchmaker/internal/core"
	"batchmaker/internal/obsv"
	"batchmaker/internal/rnn"
	"batchmaker/internal/tensor"
)

// typeExec caches one worker's per-cell-type execution resources: the
// resolved fast path, the input/output name lists (so the hot loop never
// re-allocates them), the reused input/output tensor maps, and the metric
// cells this worker is the only writer of.
type typeExec struct {
	cell     rnn.Cell
	obs      *obsType          // shared per-type handles
	exec     *obsv.ExecMetrics // this worker's task/cell counters for the type
	fast     rnn.IntoStepper   // nil: the cell has no StepInto; use Step
	inNames  []string
	outNames []string
	widths   []int // per output, in outNames order; nil: unknown, allocating scatter
	inputs   map[string]*tensor.Tensor
	outs     map[string]*tensor.Tensor
	// outRows is the current task's batched outputs in outNames order, so
	// the scatter addresses them by index like the request's rows.
	outRows []*tensor.Tensor
}

// workerExec is one worker's reusable execution state: the scratch arena
// every per-task intermediate is carved from, the per-type caches, the
// row-pointer gather scratch, and the row buffer lent to
// Config.TaskObserver. Together with per-request output rows preallocated at
// admission, it makes the steady-state task loop — gather, step, scatter —
// free of heap allocations (§4.3's memory-copy step run at memcpy speed, not
// allocator speed).
type workerExec struct {
	arena *tensor.Arena
	types map[string]*typeExec
	rows  [][]*tensor.Tensor
	seen  []core.NodeRef
}

func newWorkerExec() *workerExec {
	return &workerExec{
		arena: tensor.NewArena(0),
		types: make(map[string]*typeExec),
	}
}

// typeFor returns worker id's cached per-type resources, building them on
// first use.
func (s *Server) typeFor(w *workerExec, id int, key string) *typeExec {
	te := w.types[key]
	if te == nil {
		cell := s.cells[key]
		te = &typeExec{
			cell:     cell,
			obs:      s.obs.types[key],
			exec:     s.obs.exec[id][key],
			inNames:  cell.InputNames(),
			outNames: cell.OutputNames(),
			widths:   s.outWidths[key],
			inputs:   make(map[string]*tensor.Tensor),
			outs:     make(map[string]*tensor.Tensor),
			outRows:  make([]*tensor.Tensor, len(cell.OutputNames())),
		}
		if fast, ok := cell.(rnn.IntoStepper); ok {
			te.fast = fast
		}
		w.types[key] = te
	}
	return te
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

// execRefPool recycles the executed-rows slices that travel inside
// completion records from workers to the manager. The manager returns each
// buffer after consuming it (see mgr.complete), so in steady state no
// per-task slice is allocated. Buffers are cleared before
// reuse so pooled entries do not pin resolved requests in memory.
var execRefPool = sync.Pool{New: func() any {
	b := make([]execRef, 0, 64)
	return &b
}}

func getExecRefs() *[]execRef { return execRefPool.Get().(*[]execRef) }

func putExecRefs(buf *[]execRef) {
	refs := *buf
	for i := range refs {
		refs[i] = execRef{}
	}
	*buf = refs[:0]
	execRefPool.Put(buf)
}

// rowWidth returns the column count of a one-row tensor (rank-1 or [1, c]).
func rowWidth(t *tensor.Tensor) int {
	if t.Rank() == 1 {
		return t.Dim(0)
	}
	return t.Dim(t.Rank() - 1)
}

// workerLoop is one GPU worker: it executes the tasks on its channel in
// FIFO order (§4.2) and pushes a completion record per task. The manager
// closes the channel at shutdown, once every dispatched task completed.
func (s *Server) workerLoop(id int, tasks <-chan *core.Task) {
	defer s.wg.Done()
	ws := newWorkerExec()
	for task := range tasks {
		s.completions <- s.execTask(id, task, ws)
	}
}

// execTask gathers the batched inputs, runs the cell, and scatters the
// outputs into per-request state. The scatter happens here — not in the
// completion stage — because intra-subgraph successors are released at
// submit time and rely on FIFO execution on the same worker: a successor's
// gather must observe its dependency's scatter, exactly like consecutive
// kernels on one GPU stream. Dependency tracking and resolution stay with
// the manager.
func (s *Server) execTask(id int, task *core.Task, ws *workerExec) completion {
	te := s.typeFor(ws, id, task.TypeKey)
	ws.arena.Reset()
	now := time.Now()
	refsBuf := getExecRefs()
	refs := *refsBuf
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
	*refsBuf = refs
	if len(refs) == 0 {
		// Nothing left to run: the completion record still retires the
		// task so the scheduler's pin and in-flight bookkeeping drain
		// clean.
		putExecRefs(refsBuf)
		return completion{task: task}
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
	outs, stepErr := s.stepOnce(te, task, len(refs), ws.arena)

	elapsed := int64(time.Since(now))
	s.obs.taskExec(id, task, te, len(refs), elapsed,
		ws.arena.HighWaterBytes(), now.UnixNano()+elapsed)
	if s.cfg.TaskObserver != nil {
		ws.seen = ws.seen[:0]
		for _, ref := range refs {
			ws.seen = append(ws.seen, core.NodeRef{Req: ref.req.id, Node: ref.node})
		}
		s.cfg.TaskObserver(id, task.TypeKey, ws.seen)
	}

	if stepErr != nil {
		// Poison before the failure record is enqueued: successor tasks
		// already queued behind this one must not gather rows whose
		// dependencies never completed.
		for _, ref := range refs {
			ref.req.poisoned.Store(true)
		}
		return completion{task: task, executed: refs, refsBuf: refsBuf, err: stepErr}
	}

	for o, name := range te.outNames {
		te.outRows[o] = outs[name]
	}

	// Scatter: copy each batch-output row into the request's preallocated
	// output rows (carved at admission) and complete the nodes, so successor
	// gathers — on this worker via FIFO, on others via the completion
	// stage's release — see finished inputs. Requests whose outputs were not
	// preallocated (cells without static widths) take the allocating path.
	for i, ref := range refs {
		if ref.req.resolved.Load() {
			// Resolved mid-execution; its state will never be read.
			continue
		}
		ref.req.stateMu.Lock()
		if ref.req.state.Preallocated(ref.node) {
			for o, batched := range te.outRows {
				copy(ref.req.state.OutputRow(ref.node, o).Data(), batched.RowSlice(i))
			}
			ref.req.state.CompletePrealloc(ref.node)
		} else {
			rowOut := make(map[string]*tensor.Tensor, len(outs))
			for name, t := range outs {
				rowOut[name] = tensor.SliceRows(t, i, i+1)
			}
			ref.req.state.Complete(ref.node, rowOut)
		}
		ref.req.stateMu.Unlock()
	}
	return completion{task: task, executed: refs, refsBuf: refsBuf}
}

// stepOnce executes one task. Cells with a StepInto fast path run it
// against arena-backed output buffers (reused via te.outs); other cells fall
// back to the allocating Step. A panicking cell (injected or real) is
// recovered here — the worker survives, the batch's requests fail, and the
// cell's quarantine counter grows.
func (s *Server) stepOnce(te *typeExec, task *core.Task, batch int, arena *tensor.Arena) (outs map[string]*tensor.Tensor, err error) {
	defer func() {
		if p := recover(); p != nil {
			s.obs.cellPanic(task, te, batch)
			err = fmt.Errorf("%w: %s: %v", ErrCellPanic, te.cell.Name(), p)
			outs = nil
		}
	}()
	if s.faults != nil {
		switch d := s.faults.Inject(task.TypeKey, batch); d.Kind {
		case FaultDelay:
			time.Sleep(d.Delay)
		case FaultError:
			if d.Err != nil {
				return nil, d.Err
			}
			return nil, ErrInjected
		case FaultPanic:
			panic(ErrInjected)
		}
	}
	if te.fast != nil && te.widths != nil {
		for o, name := range te.outNames {
			te.outs[name] = arena.Get(batch, te.widths[o])
		}
		if err := te.fast.StepInto(te.inputs, te.outs, arena); err != nil {
			return nil, err
		}
		return te.outs, nil
	}
	return te.cell.Step(te.inputs)
}
