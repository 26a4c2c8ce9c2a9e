package server

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"batchmaker/internal/cellgraph"
	"batchmaker/internal/obsv"
	"batchmaker/internal/rnn"
	"batchmaker/internal/tensor"
)

// obsServer builds a small live server with observability on.
func obsServer(t *testing.T, cfg Config) (*Server, *rnn.LSTMCell) {
	t.Helper()
	lstm := rnn.NewLSTMCell("lstm", tEmbed, tHidden, tensor.NewRNG(7))
	cfg.Cells = []CellSpec{{Cell: lstm, MaxBatch: 8}}
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, lstm
}

func submitChain(t *testing.T, s *Server, cell *rnn.LSTMCell, seed uint64, n int) {
	t.Helper()
	g, err := cellgraph.UnfoldChain(cell, chainInput(seed, n))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(context.Background(), g); err != nil {
		t.Fatal(err)
	}
}

// TestServerMetricsEndToEnd drives real requests through the pipeline and
// asserts the registry's families reflect them: outcome counters, latency
// split quantiles, batch occupancy, per-type totals, and a full
// admit→first_exec→complete flow per request in the trace.
func TestServerMetricsEndToEnd(t *testing.T) {
	s, cell := obsServer(t, Config{})
	const reqs = 6
	for i := 0; i < reqs; i++ {
		submitChain(t, s, cell, uint64(i+1), 5)
	}

	m := s.Metrics()
	if m == nil {
		t.Fatal("observability should be on by default")
	}
	if got := m.Admitted.Value(); got != reqs {
		t.Fatalf("admitted: got %d want %d", got, reqs)
	}
	if got := m.Completed.Value(); got != reqs {
		t.Fatalf("completed: got %d want %d", got, reqs)
	}
	if m.Inflight.Value() != 0 || m.QueuedCells.Value() != 0 {
		t.Fatalf("gauges should drain to 0: inflight=%d queued=%d",
			m.Inflight.Value(), m.QueuedCells.Value())
	}
	if got := m.Queuing.Count(); got != reqs {
		t.Fatalf("queuing observations: got %d want %d", got, reqs)
	}
	if got := m.Computation.Count(); got != reqs {
		t.Fatalf("computation observations: got %d want %d", got, reqs)
	}
	if m.BatchOccupancy.Count() == 0 {
		t.Fatal("no batch occupancy observations")
	}
	stats := m.TypesByCells()
	if len(stats) != 1 || stats[0].Cells != reqs*5 {
		t.Fatalf("per-type cells: %+v (want %d lstm cells)", stats, reqs*5)
	}
	if used, cap := m.SlotsUsed.Value(), m.SlotsCap.Value(); used == 0 || cap < used {
		t.Fatalf("slot accounting: used=%d cap=%d", used, cap)
	}

	// Exposition includes the core families with real values.
	var b strings.Builder
	if err := m.Registry().WritePromTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, family := range []string{
		obsv.MetricRequestsTotal, obsv.MetricQueuingSeconds, obsv.MetricComputationSeconds,
		obsv.MetricBatchOccupancy, obsv.MetricReadyQueueDepth, obsv.MetricArenaHighWaterBytes,
	} {
		if !strings.Contains(out, family) {
			t.Fatalf("exposition missing %s:\n%s", family, out)
		}
	}

	// Every request's history reads back from the trace: its flow starts
	// at admit on the pipeline process, steps onto a worker's process at
	// its first execution and ends at its terminal back on the pipeline
	// process, in time order — the paper's queuing/computation split.
	var b2 bytes.Buffer
	if err := s.Observer().WriteTrace(&b2, obsv.TraceOptions{}); err != nil {
		t.Fatal(err)
	}
	var doc liveTraceDoc
	if err := json.Unmarshal(b2.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	type hop struct {
		ph  string
		pid int
		ts  float64
	}
	flows := map[int64][]hop{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "s", "t", "f":
			flows[ev.ID] = append(flows[ev.ID], hop{ev.Ph, ev.Pid, ev.Ts})
		}
	}
	if len(flows) != reqs {
		t.Fatalf("trace holds %d request flows, want %d", len(flows), reqs)
	}
	for id, hops := range flows {
		if len(hops) != 3 {
			t.Fatalf("req %d flow: %+v, want admit→first_exec→complete", id, hops)
		}
		admit, first, end := hops[0], hops[1], hops[2]
		if admit.ph != "s" || admit.pid != 1 {
			t.Fatalf("req %d flow must start on the pipeline process: %+v", id, hops)
		}
		if first.ph != "t" || first.pid < 10 {
			t.Fatalf("req %d flow must step onto a worker's process: %+v", id, hops)
		}
		if end.ph != "f" || end.pid != 1 {
			t.Fatalf("req %d flow must end on the pipeline process: %+v", id, hops)
		}
		if queuing, computation := first.ts-admit.ts, end.ts-first.ts; queuing <= 0 || computation <= 0 {
			t.Fatalf("req %d latency split not positive: queuing=%vµs computation=%vµs", id, queuing, computation)
		}
	}

	s.Stop()
}

// TestServerHealthTransitions covers /healthz's state machine: serving →
// draining → stopped.
func TestServerHealthTransitions(t *testing.T) {
	s, _ := obsServer(t, Config{})
	if h := s.Health(); h.Status != "serving" || !h.OK() {
		t.Fatalf("fresh server health: %+v", h)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if h := s.Health(); h.Status != "stopped" || h.OK() {
		t.Fatalf("post-drain health: %+v", h)
	}
}

// TestServerObsDisabled pins what ObsConfig.Disabled turns off — the span
// observer (rings, lifecycle records) and the latency summaries — and what
// it must leave on: the counters and gauges Stats and Health are views of.
func TestServerObsDisabled(t *testing.T) {
	s, cell := obsServer(t, Config{Obs: ObsConfig{Disabled: true}})
	submitChain(t, s, cell, 3, 4)
	if s.Observer() != nil {
		t.Fatal("disabled observability should expose no observer")
	}
	m := s.Metrics()
	if m == nil {
		t.Fatal("metric cells must stay live: they are the server's only bookkeeping")
	}
	if m.Queuing.Count() != 0 || m.Computation.Count() != 0 {
		t.Fatalf("latency summaries observed %d/%d requests while disabled", m.Queuing.Count(), m.Computation.Count())
	}
	st := s.Stats()
	if st.Outcomes.Admitted != 1 || st.Outcomes.Completed != 1 || st.CellsRun != 4 || st.NsPerCell <= 0 {
		t.Fatalf("Stats must work without the recording layer: %+v", st)
	}
	if h := s.Health(); h.Status != "serving" {
		t.Fatalf("health must work without the recording layer: %+v", h)
	}
	s.Stop()
}
