package main

import (
	"fmt"
	"os"
	"time"

	"batchmaker/internal/cellgraph"
	"batchmaker/internal/core"
	"batchmaker/internal/journal"
	"batchmaker/internal/policy"
	"batchmaker/internal/rnn"
	"batchmaker/internal/tensor"
)

// ladderRequests is how many of the traced segment's requests the ladder
// replays through each layer's public functions.
const ladderRequests = 200

// timeOp returns the cost of one call of op in microseconds: the median over
// five batches of at least 10 ms each, so one slow stretch of the machine
// moves one batch, not the result.
func timeOp(op func()) float64 {
	for i := 0; i < 3; i++ {
		op()
	}
	var batches []float64
	for b := 0; b < 5; b++ {
		n, begin := 0, time.Now()
		for time.Since(begin) < 10*time.Millisecond {
			op()
			n++
		}
		batches = append(batches, us(time.Since(begin))/float64(n))
	}
	return median(batches)
}

// ladder measures the unit costs of each layer below the server by calling
// the layer's public functions directly on the same requests the traced
// segment sent. inflight is the number of requests the segment had in the
// server on average, which sets how much the scheduler replay has to batch.
func ladder(w *workload, seed uint64, window time.Duration, inflight int, tmp string) (map[string]float64, error) {
	items := buildSchedule(w, seed, window)
	if len(items) > ladderRequests {
		items = items[:ladderRequests]
	}
	n := float64(len(items))
	m := newModel(w)
	L := map[string]float64{}

	// cellgraph: unfold, partition, the critical path, and unbatched
	// execution as the floor batching has to beat.
	graphs := make([]*cellgraph.Graph, len(items))
	begin := time.Now()
	for i := range items {
		g, err := m.unfold(&items[i])
		if err != nil {
			return nil, err
		}
		graphs[i] = g
	}
	L["cellgraph.unfold_us_per_req"] = us(time.Since(begin)) / n
	var nodes, subs, crit float64
	for _, g := range graphs {
		nodes += float64(g.NumCells())
		subs += float64(len(cellgraph.Partition(g)))
		crit += float64(g.CriticalPathLen())
	}
	L["cellgraph.nodes_per_req"] = nodes / n
	L["cellgraph.subgraphs_per_req"] = subs / n
	L["cellgraph.critical_path_cells"] = crit / n
	const seqRuns = 20
	begin = time.Now()
	for _, g := range graphs[:seqRuns] {
		if _, err := cellgraph.ExecuteSequential(g); err != nil {
			return nil, err
		}
	}
	L["cellgraph.seqexec_ms_per_req"] = ms(time.Since(begin)) / seqRuns

	tensorRungs(w, L)
	for i, cell := range []rnn.IntoStepper{m.cell0, m.cell1} {
		b1, err := stepCost(cell, w, 1)
		if err != nil {
			return nil, err
		}
		b16, err := stepCost(cell, w, 16)
		if err != nil {
			return nil, err
		}
		L[fmt.Sprintf("rnn.cell%d_step_us_b1", i)] = b1
		L[fmt.Sprintf("rnn.cell%d_step_us_b16", i)] = b16
	}
	L["rnn.batch_gain_b16"] = 16 * (L["rnn.cell0_step_us_b1"] + L["rnn.cell1_step_us_b1"]) /
		(L["rnn.cell0_step_us_b16"] + L["rnn.cell1_step_us_b16"])

	if err := coreReplay(w, m, graphs, inflight, L); err != nil {
		return nil, err
	}

	// policy and journal are off the request path of the workloads that do
	// not configure them, so their unit costs are left out (reported 0) there.
	if w.policy {
		ctl := policy.New(policy.Config{Mode: policy.ModeFull, SLA: policySLA},
			[]policy.TypeBounds{{Key: m.cell0.TypeKey(), Min: 1, Max: 64}, {Key: m.cell1.TypeKey(), Min: 1, Max: 32}}, nil)
		now := int64(0)
		L["policy.admit_ns"] = 1000 * timeOp(func() { now += 1000; ctl.Admit(now, 40) })
		L["policy.completed_ns"] = 1000 * timeOp(func() {
			now += 1000
			ctl.Completed(now, 40, time.Millisecond, 5*time.Millisecond)
		})
	}
	if w.wire {
		cost, err := journalAppendCost(tmp)
		if err != nil {
			return nil, err
		}
		L["journal.append_us"] = cost
	}
	return L, nil
}

// largestWeight returns the [k, n] shape of the workload's largest weight
// matrix: the LSTM gate matrix, the decoder's output projection, or the tree
// internal cell's gate matrix.
func largestWeight(w *workload) (k, n int) {
	k, n = w.embed+w.hidden, 4*w.hidden
	k2, n2 := w.hidden, w.vocab
	if w.tree {
		k2, n2 = 2*w.hidden, 5*w.hidden
	}
	if k2*n2 > k*n {
		k, n = k2, n2
	}
	return k, n
}

// tensorRungs times the matmul kernel at the largest weight shape and one
// gather+scatter of 16 hidden-width rows. GFLOP/s and bytes are computed
// from the sizes, not measured.
func tensorRungs(w *workload, L map[string]float64) {
	k, n := largestWeight(w)
	weights, bias := tensor.New(k, n), tensor.New(n)
	for i, d := 0, weights.Data(); i < len(d); i++ {
		d[i] = float32(i%13) * 0.01
	}
	for _, b := range []int{1, 16} {
		a, dst := tensor.Full(0.5, b, k), tensor.New(b, n)
		L[fmt.Sprintf("tensor.matmul_us_b%d", b)] = timeOp(func() { tensor.MatMulAddBiasInto(dst, a, weights, bias) })
	}
	L["tensor.matmul_gflops_b16"] = 2 * 16 * float64(k) * float64(n) / (L["tensor.matmul_us_b16"] * 1e3)
	L["tensor.matmul_bytes_b16"] = 4 * float64(16*k+k*n+n+16*n)
	rows, batch := tensor.NewRows(16, w.hidden), tensor.New(16, w.hidden)
	L["tensor.gather_scatter_us_b16"] = timeOp(func() {
		tensor.FillRows(batch, rows)
		tensor.ScatterRowsInto(rows, batch)
	})
}

// stepCost times one batched StepInto of the cell with an arena, as a
// worker runs it.
func stepCost(cell rnn.IntoStepper, w *workload, b int) (float64, error) {
	inputs := map[string]*tensor.Tensor{}
	for _, name := range cell.InputNames() {
		if name == "ids" {
			inputs[name] = tensor.Full(2, b, 1)
		} else {
			inputs[name] = tensor.Full(0.1, b, w.hidden)
		}
	}
	out := map[string]*tensor.Tensor{}
	for name, width := range cell.(rnn.OutputSized).OutputWidths() {
		out[name] = tensor.New(b, width)
	}
	arena := tensor.NewArena(0)
	var err error
	cost := timeOp(func() {
		arena.Reset()
		if e := cell.StepInto(inputs, out, arena); e != nil {
			err = e
		}
	})
	return cost, err
}

// coreReplay pushes the requests' subgraph specs through a fresh tracker and
// scheduler with a no-op executor, keeping inflight requests live at a time,
// and times the three scheduler entry points.
func coreReplay(w *workload, m *model, graphs []*cellgraph.Graph, inflight int, L map[string]float64) error {
	var types []core.TypeConfig
	for _, cs := range m.cellSpecs(w) {
		types = append(types, core.TypeConfig{Key: cs.Cell.TypeKey(), MaxBatch: cs.MaxBatch, Priority: cs.Priority})
	}
	sched, err := core.NewScheduler(core.Config{Types: types})
	if err != nil {
		return err
	}
	if inflight < 1 {
		inflight = 1
	}
	var addT, schedT, doneT time.Duration
	var adds, tasks, cells int
	add := func(specs []core.SubgraphSpec) error {
		begin := time.Now()
		for _, spec := range specs {
			if _, err := sched.AddSubgraph(spec); err != nil {
				return err
			}
		}
		addT += time.Since(begin)
		adds += len(specs)
		return nil
	}
	trackers := map[core.RequestID]*core.Tracker{}
	next := 0
	for next < len(graphs) || len(trackers) > 0 {
		for len(trackers) < inflight && next < len(graphs) {
			id := core.RequestID(next + 1)
			tr, err := core.NewTracker(id, graphs[next])
			if err != nil {
				return err
			}
			next++
			trackers[id] = tr
			if err := add(tr.InitialSubgraphs()); err != nil {
				return err
			}
		}
		begin := time.Now()
		batch := sched.Schedule(0)
		schedT += time.Since(begin)
		if len(batch) == 0 {
			return fmt.Errorf("core replay: scheduler has no work with %d requests live", len(trackers))
		}
		for _, task := range batch {
			tasks++
			cells += len(task.Nodes)
			for _, ref := range task.Nodes {
				tr := trackers[ref.Req]
				specs, err := tr.NodeDone(ref.Node)
				if err != nil {
					return err
				}
				if err := add(specs); err != nil {
					return err
				}
				if tr.Finished() {
					delete(trackers, ref.Req)
				}
			}
			begin := time.Now()
			if err := sched.TaskCompleted(task.ID); err != nil {
				return err
			}
			doneT += time.Since(begin)
		}
	}
	L["core.add_subgraph_us"] = us(addT) / float64(adds)
	L["core.schedule_us_per_task"] = us(schedT) / float64(tasks)
	L["core.task_completed_us"] = us(doneT) / float64(tasks)
	L["core.tasks_per_req"] = float64(tasks) / float64(len(graphs))
	L["core.cells_per_task"] = float64(cells) / float64(tasks)
	return nil
}

// journalAppendCost times the two appends every journaled request makes, an
// admit with an 80-byte payload and a terminal, against a real journal under
// the batch sync policy. Appends only enqueue; each batch waits for its last
// acknowledgement, untimed, so the 1024-deep queue never overflows.
func journalAppendCost(tmp string) (float64, error) {
	dir, err := os.MkdirTemp(tmp, "ladder-journal-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	j, err := journal.Open(journal.Options{Dir: dir, Sync: journal.SyncBatch})
	if err != nil {
		return 0, err
	}
	defer j.Close()
	payload := make([]byte, 80)
	const batches, pairs = 8, 400
	var costs []float64
	id := uint64(0)
	for b := 0; b < batches; b++ {
		var ack <-chan error
		begin := time.Now()
		for p := 0; p < pairs; p++ {
			id++
			ack = j.AppendAdmit(id, payload, 0)
			j.AppendTerminal(id, journal.OutcomeCompleted, "")
		}
		costs = append(costs, us(time.Since(begin))/pairs)
		if err := <-ack; err != nil {
			return 0, fmt.Errorf("journal ladder: %w", err)
		}
	}
	return median(costs), nil
}
