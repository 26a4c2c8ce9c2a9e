package server

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"batchmaker/internal/cellgraph"
	"batchmaker/internal/core"
	"batchmaker/internal/obsv"
	"batchmaker/internal/rnn"
	"batchmaker/internal/tensor"
)

// workerAllocFixture builds the minimal Server state execTask touches —
// bypassing the pipeline goroutines — plus reqN parallel LSTM-chain requests
// and one hand-built task per chain position batching all requests' rows.
// Executing the tasks in order respects the chains' dependencies, exactly
// like FIFO execution on one worker.
func workerAllocFixture(tb testing.TB, reqN, chainN int) (*Server, []*core.Task, []*cellgraph.Graph) {
	tb.Helper()
	lstm := rnn.NewLSTMCell("lstm", tEmbed, tHidden, tensor.NewRNG(99))
	key := lstm.TypeKey()
	widths, err := rnn.OutputWidthsOf(lstm)
	if err != nil {
		tb.Fatal(err)
	}
	s := &Server{
		types: []cellType{{cell: lstm, key: key, maxBatch: int64(reqN), widths: widths}},
		live:  make(map[core.RequestID]*request),
	}
	// Span records ON (every task writes one) and TaskObserver nil: the
	// zero-alloc gate must hold with the full observability layer live,
	// exactly as New() builds it.
	s.obs = newServerObs(ObsConfig{}, s.types, 1)
	tasks := make([]*core.Task, chainN)
	for i := range tasks {
		tasks[i] = &core.Task{
			ID:      core.TaskID(i + 1),
			TypeKey: key,
			Nodes:   make([]core.NodeRef, 0, reqN),
		}
	}
	graphs := make([]*cellgraph.Graph, reqN)
	for r := 0; r < reqN; r++ {
		g, err := cellgraph.UnfoldChain(lstm, chainInput(uint64(r+1), chainN))
		if err != nil {
			tb.Fatal(err)
		}
		graphs[r] = g
		state, err := cellgraph.NewState(g)
		if err != nil {
			tb.Fatal(err)
		}
		req := &request{
			id:    core.RequestID(r + 1),
			cells: chainN,
			state: state,
			done:  make(chan struct{}),
		}
		s.live[req.id] = req
		for i := 0; i < chainN; i++ {
			tasks[i].Nodes = append(tasks[i].Nodes, core.NodeRef{Req: req.id, Node: cellgraph.NodeID(i)})
		}
	}
	return s, tasks, graphs
}

// runAllocTask executes one task the way workerLoop does, reusing the
// worker's executed-rows record.
func runAllocTask(tb testing.TB, s *Server, task *core.Task, ws *workerExec) {
	if _, _, err := s.execTask(0, task, ws); err != nil {
		tb.Fatalf("task %d: %v", task.ID, err)
	}
}

// TestWorkerExecLoopZeroAlloc is the tentpole assertion: once the arena and
// per-type caches are warm, the gather → step → scatter loop performs no
// heap allocations. The measurement runs with GC disabled so pool evictions
// cannot blur it.
func TestWorkerExecLoopZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; strict gate runs in the non-race suite")
	}
	const reqN, chainN, warm, rewarm = 4, 610, 100, 10
	s, tasks, graphs := workerAllocFixture(t, reqN, chainN)

	// The anomaly detector must not disturb the hot path: it runs live (at
	// its fixed cadence) for the whole measurement. Detection reads the
	// registry and rings on its own goroutine — execTask never touches it.
	fr, err := obsv.NewFlightRecorder(s.Observer(), obsv.FlightRecorderConfig{
		Dir: t.TempDir(),
		SLA: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Stop()
	fr.Evaluate(time.Now().UnixNano())

	ws := s.newWorkerExec(0)
	for _, task := range tasks[:warm] {
		runAllocTask(t, s, task, ws)
	}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// A GC cycle started during warm-up can still be in flight here and
	// would finish (allocating) inside the window: complete it, then refill
	// whatever pools it emptied before the first reading.
	runtime.GC()
	for _, task := range tasks[warm : warm+rewarm] {
		runAllocTask(t, s, task, ws)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, task := range tasks[warm+rewarm:] {
		runAllocTask(t, s, task, ws)
	}
	runtime.ReadMemStats(&m1)

	measured := len(tasks) - warm - rewarm
	perTask := float64(m1.Mallocs-m0.Mallocs) / float64(measured)
	if perTask > 0.05 {
		t.Fatalf("steady-state worker loop allocates %.3f objects/task over %d tasks, want ~0",
			perTask, measured)
	}

	// The zero-alloc path must still be the correct path: every chain's
	// results stay bit-identical to unbatched sequential execution.
	for r, g := range graphs {
		req := s.live[core.RequestID(r+1)]
		if !req.state.Finished() {
			t.Fatalf("request %d unfinished", r+1)
		}
		want, err := cellgraph.ExecuteSequential(g)
		if err != nil {
			t.Fatal(err)
		}
		got := req.state.Results()
		for name, w := range want {
			if !got[name].Equal(w) {
				t.Fatalf("request %d result %q diverges from sequential execution", r+1, name)
			}
		}
	}
}

// BenchmarkWorkerChainExec measures the steady-state per-task cost of the
// worker hot path (batch of 8 LSTM rows per op); run with -benchmem to see
// the allocation profile.
func BenchmarkWorkerChainExec(b *testing.B) {
	const reqN, chainN = 8, 64
	s, tasks, _ := workerAllocFixture(b, reqN, chainN)
	ws := s.newWorkerExec(0)
	idx := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if idx == len(tasks) {
			b.StopTimer()
			s, tasks, _ = workerAllocFixture(b, reqN, chainN)
			idx = 0
			b.StartTimer()
		}
		runAllocTask(b, s, tasks[idx], ws)
		idx++
	}
}
