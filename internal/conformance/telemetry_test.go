package conformance

import (
	"strings"
	"testing"
)

// TestReconcileCatchesMiscount is the telemetry check's own acceptance test:
// a clean run reconciles, and the same registry held against a task log with
// one task removed (the registry now over-counts relative to ground truth)
// is reported — per total, per worker, per cell type and in the occupancy
// histogram.
func TestReconcileCatchesMiscount(t *testing.T) {
	cfg, opts := scenario(1000)
	m := NewModel(modelSeed)
	w := Generate(1000, cfg)
	res, err := RunLive(m, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tasks) < 2 {
		t.Fatalf("run executed %d tasks; need at least 2", len(res.Tasks))
	}
	if len(res.Telemetry) > 0 {
		t.Fatalf("clean run does not reconcile:\n%s", FormatViolations(res.Telemetry))
	}
	vs := reconcile(res.Metrics.Registry(), res.Tasks[1:])
	got := FormatViolations(vs)
	for _, want := range []string{
		`tasks_executed_total{=""}`, `cells_executed_total{worker=`, `tasks_executed_total{cell_type=`,
		"batch_occupancy_count", "batch_occupancy_sum",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("dropped task not reported against %s:\n%s", want, got)
		}
	}
}
