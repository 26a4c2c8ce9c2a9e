package server

import (
	"context"
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
// admit→first_exec→complete timeline per request.
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

	// Every request replays a full ordered timeline from the rings.
	tls := s.Observer().Timelines(0)
	byReq := map[int64]*obsv.Timeline{}
	for _, tl := range tls {
		byReq[tl.Req] = tl
	}
	if len(byReq) != reqs {
		t.Fatalf("timelines: got %d want %d", len(byReq), reqs)
	}
	for id, tl := range byReq {
		if tl.Outcome != "complete" {
			t.Fatalf("req %d outcome %q", id, tl.Outcome)
		}
		kinds := make([]string, len(tl.Events))
		for i, e := range tl.Events {
			kinds[i] = e.Kind
		}
		if got := strings.Join(kinds, ","); got != "admit,first_exec,complete" {
			t.Fatalf("req %d timeline: %s", id, got)
		}
		if tl.QueuingNs <= 0 || tl.ComputationNs <= 0 {
			t.Fatalf("req %d latency split not positive: %+v", id, tl)
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
