package sim

import (
	"strings"
	"testing"

	"batchmaker/internal/obsv"
	"batchmaker/internal/rnn"
	"batchmaker/internal/server"
	"batchmaker/internal/tensor"
)

// TestSimMetricsHook runs a virtual-time simulation with a metrics registry
// attached and asserts the families the live server publishes are fed by
// the sim too, with values consistent with the run result.
func TestSimMetricsHook(t *testing.T) {
	reg := obsv.NewRegistry()
	m := obsv.NewServingMetrics(reg)
	model := NewLSTMModel(512, 1)
	cfg := defaultBMConfig(model, 1)
	cfg.Metrics = m
	wl := &FixedWorkload{Shape: Shape{Kind: KindChain, Len: 8}}
	if _, err := RunBatchMaker(cfg, wl, shortRun(100, 1)); err != nil {
		t.Fatal(err)
	}

	admitted, completed := m.Admitted.Value(), m.Completed.Value()
	if admitted == 0 || admitted != completed {
		t.Fatalf("sim outcomes: admitted=%d completed=%d (the sim drains fully)", admitted, completed)
	}
	if m.Inflight.Value() != 0 {
		t.Fatalf("inflight should drain to 0, got %d", m.Inflight.Value())
	}
	// Every completion contributes one observation to each latency summary.
	if m.Queuing.Count() != completed || m.Computation.Count() != completed {
		t.Fatalf("latency split observations: queuing=%d computation=%d want %d",
			m.Queuing.Count(), m.Computation.Count(), completed)
	}
	if m.BatchOccupancy.Count() == 0 {
		t.Fatal("no batch occupancy observations")
	}
	if used, cap := m.SlotsUsed.Value(), m.SlotsCap.Value(); used == 0 || cap < used {
		t.Fatalf("slot accounting: used=%d cap=%d", used, cap)
	}
	stats := m.TypesByCells()
	if len(stats) != 1 || stats[0].Key != TypeLSTM || stats[0].Cells != m.SlotsUsed.Value() {
		t.Fatalf("per-type totals: %+v", stats)
	}
}

// TestSimServerFamilyParity pins the tentpole promise: a virtual-time sim
// run and the live server publish the same core metric families, so the
// same dashboards and scrapes work against both. The live set adds
// worker/arena/trace families the sim has no analog for; the sim set adds
// exactly the three device families (the device dimension lives in core +
// sim only, so the live server must export none of them); the shared serving
// core must be present in both.
func TestSimServerFamilyParity(t *testing.T) {
	// Sim side.
	simReg := obsv.NewRegistry()
	cfg := defaultBMConfig(NewLSTMModel(512, 1), 1)
	cfg.Metrics = obsv.NewServingMetrics(simReg)
	wl := &FixedWorkload{Shape: Shape{Kind: KindChain, Len: 4}}
	if _, err := RunBatchMaker(cfg, wl, shortRun(50, 1)); err != nil {
		t.Fatal(err)
	}

	// Live side: a real server with observability on.
	lstm := rnn.NewLSTMCell("lstm", 8, 16, tensor.NewRNG(1))
	srv, err := server.New(server.Config{
		Workers: 1,
		Cells:   []server.CellSpec{{Cell: lstm, MaxBatch: 8}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	liveSet := map[string]bool{}
	for _, name := range srv.Metrics().Registry().FamilyNames() {
		liveSet[name] = true
	}

	simOnly := map[string]bool{
		obsv.MetricDeviceReadyDepth: true, obsv.MetricDeviceCopies: true, obsv.MetricDevicePinMoves: true,
	}
	for _, name := range simReg.FamilyNames() {
		if !liveSet[name] && !simOnly[name] {
			t.Errorf("sim family %q not published by the live server", name)
		}
		delete(simOnly, name)
	}
	for name := range simOnly {
		t.Errorf("sim registry missing device family %q", name)
	}
	for name := range liveSet {
		if strings.HasPrefix(name, "batchmaker_device_") {
			t.Errorf("live server publishes device family %q", name)
		}
	}
	for _, name := range []string{
		obsv.MetricRequestsTotal, obsv.MetricBatchOccupancy,
		obsv.MetricBatchSlotsUsed, obsv.MetricBatchSlotsCap, obsv.MetricPaddingWasteRatio,
		obsv.MetricQueuingSeconds, obsv.MetricComputationSeconds,
		obsv.MetricReadyQueueDepth, obsv.MetricTasksExecuted, obsv.MetricCellsExecuted,
	} {
		if !liveSet[name] {
			t.Errorf("live server missing core family %q", name)
		}
		found := false
		for _, n := range simReg.FamilyNames() {
			if n == name {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("sim registry missing core family %q", name)
		}
	}

	// Both expositions parse as the same family text format.
	var b strings.Builder
	if err := simReg.WritePromTo(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "# TYPE "+obsv.MetricBatchOccupancy+" histogram") {
		t.Fatalf("sim exposition missing histogram TYPE line:\n%s", b.String())
	}
}
