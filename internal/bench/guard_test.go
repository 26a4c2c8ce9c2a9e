package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// ciAllocBudget bounds the recorded pipelined engine's end-to-end heap
// allocations per executed cell. Measured steady state is ~38 (all of it
// admission, scheduling and client-side work — the worker loop itself is
// allocation-free, see TestWorkerExecLoopZeroAlloc); the budget leaves
// headroom for machine noise while catching any per-cell allocation creep
// back into the serving path.
const ciAllocBudget = 60.0

// ciObsOverheadBudget bounds the observability layer's cost: tracing on at
// default sampling must stay within 5% of the untraced engine per cell.
const ciObsOverheadBudget = 1.05

// ciJournalOverheadBudget bounds the durability layer's cost: the request
// journal at sync=batch (group commit) must stay within 20% of the
// journal-off engine per cell. Measured medians on the 1-CPU reference
// box range 1.06–1.15 across recording sessions (fsync latency is the
// noisiest figure in the report — see the noise-floor note in DESIGN.md
// §10); the budget sits above that ambient spread while still catching a
// real regression such as group commit degrading to per-record fsync,
// which measures well over 2x.
const ciJournalOverheadBudget = 1.20

// ciScalingBudget bounds the pool-scaling floor: two single-worker device
// pools must serve the recorded mixed workload at no less than 1.5x the
// one-pool throughput.
const ciScalingBudget = 1.5

// ciPolicyTailBudget bounds the adaptive policy's tail: under the recorded
// burst, the policy arm's served-request P99 must not exceed the static
// arm's (and CheckPolicyTail additionally requires strictly fewer deadline
// misses).
const ciPolicyTailBudget = 1.0

// ciQuantMaxAbsErr / ciQuantMinCosine mirror the rnn package's accuracy
// gates (DESIGN.md §14) on the recorded drift figures.
const (
	ciQuantMaxAbsErr = 0.08
	ciQuantMinCosine = 0.998
)

// TestBenchGuard is the CI regression gate: the checked-in BENCH_server.json
// must show every recorded configuration's pipelined engine at or above the
// global-lock baseline and inside the allocation budget.
func TestBenchGuard(t *testing.T) {
	path := filepath.Join("..", "..", "BENCH_server.json")
	if _, err := os.Stat(path); os.IsNotExist(err) {
		t.Skip("no recorded BENCH_server.json (run TestRecordLiveBench with BENCH_RECORD=1)")
	}
	r, err := ReadGuardReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.CheckSpeedup(1.0); err != nil {
		t.Fatalf("throughput regression: %v", err)
	}
	if err := r.CheckAllocs(ciAllocBudget); err != nil {
		t.Fatalf("allocation regression: %v", err)
	}
	if err := r.CheckObservabilityOverhead(ciObsOverheadBudget); err != nil {
		t.Fatalf("observability overhead regression: %v", err)
	}
	if err := r.CheckJournalOverhead(ciJournalOverheadBudget); err != nil {
		t.Fatalf("journal overhead regression: %v", err)
	}
	if err := r.CheckScaling(ciScalingBudget); err != nil {
		t.Fatalf("pool-scaling regression: %v", err)
	}
	if err := r.CheckPolicyTail(ciPolicyTailBudget); err != nil {
		t.Fatalf("policy tail regression: %v", err)
	}
	if err := r.CheckQuantRecord(ciQuantMaxAbsErr, ciQuantMinCosine); err != nil {
		t.Fatalf("quantization record: %v", err)
	}
	for _, c := range r.Configs {
		t.Logf("%s: pipelined %.0f req/s (%.1f allocs/cell) vs global-lock %.0f req/s (%.2fx)",
			c.Label, c.Pipelined.ReqPerSec, c.Pipelined.AllocsPerCell, c.GlobalLock.ReqPerSec, c.Speedup())
	}
	if o := r.Observability; o != nil {
		if o.Ratio() < 1.0 {
			t.Logf("observability: tracing on %.0f ns/cell vs off %.0f ns/cell (raw %.3fx < 1.0 — below the noise floor, no measurable overhead)",
				o.TracingOnNsPerCell, o.TracingOffNsPerCell, o.Ratio())
		} else {
			t.Logf("observability: tracing on %.0f ns/cell vs off %.0f ns/cell (%.3fx)",
				o.TracingOnNsPerCell, o.TracingOffNsPerCell, o.Ratio())
		}
	}
	if d := r.Durability; d != nil {
		t.Logf("durability: journal on %.0f ns/cell vs off %.0f ns/cell (%.3fx)",
			d.JournalOnNsPerCell, d.JournalOffNsPerCell, d.Ratio())
	}
	if s := r.Scaling; s != nil {
		for _, p := range s.Points {
			t.Logf("scaling: %d pools %.0f req/s", p.Pools, p.ReqPerSec)
		}
		t.Logf("scaling: 2-pool speedup %.3fx", s.Speedup2x1)
	}
	if p := r.Policy; p != nil {
		t.Logf("policy: P99 %.1fms vs %.1fms static (%.3fx), misses %d vs %d, shed %d",
			p.PolicyP99Ns/1e6, p.StaticP99Ns/1e6, p.Ratio(), p.PolicyMisses, p.StaticMisses, p.PolicyShed)
	}
	if q := r.Quantization; q != nil {
		for _, c := range q.Cells {
			t.Logf("quantization: %s int8 %.0f ns/step vs f32 %.0f (%.2fx), maxAbsErr=%.4f minCos=%.5f",
				c.Cell, c.Int8NsPerStep, c.F32NsPerStep, c.Ratio(), c.MaxAbsErr, c.MinCosine)
		}
	}
}

func writeGuardFile(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestGuardDetectsRegression(t *testing.T) {
	path := writeGuardFile(t, `{
		"global_lock": {"requests_per_sec": 4000},
		"pipelined": {"requests_per_sec": 3000},
		"speedup_req_per_sec": 0.75
	}`)
	r, err := ReadGuardReport(path)
	if err != nil {
		t.Fatal(err)
	}
	err = r.CheckSpeedup(1.0)
	if err == nil {
		t.Fatal("guard accepted a 0.75x regression")
	}
	if !strings.Contains(err.Error(), "0.750x") {
		t.Fatalf("error %q does not report the measured ratio", err)
	}
}

func TestGuardDetectsInconsistentReport(t *testing.T) {
	path := writeGuardFile(t, `{
		"global_lock": {"requests_per_sec": 4000},
		"pipelined": {"requests_per_sec": 5000},
		"speedup_req_per_sec": 2.0
	}`)
	r, err := ReadGuardReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.CheckSpeedup(1.0); err == nil {
		t.Fatal("guard accepted a report whose speedup disagrees with its throughputs")
	}
}

func TestGuardDetectsAllocRegression(t *testing.T) {
	path := writeGuardFile(t, `{
		"configs": [{
			"label": "gomaxprocs-1",
			"global_lock": {"requests_per_sec": 4000, "allocs_per_cell": 80},
			"pipelined": {"requests_per_sec": 5000, "allocs_per_cell": 120}
		}]
	}`)
	r, err := ReadGuardReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.CheckSpeedup(1.0); err != nil {
		t.Fatalf("speedup check must pass here: %v", err)
	}
	err = r.CheckAllocs(60)
	if err == nil {
		t.Fatal("guard accepted 120 allocs/cell against a budget of 60")
	}
	if !strings.Contains(err.Error(), "120.0") || !strings.Contains(err.Error(), "gomaxprocs-1") {
		t.Fatalf("error %q does not report the measured rate and config", err)
	}
}

func TestGuardAllocsSkipsLegacyReports(t *testing.T) {
	// A pre-allocation-tracking report (allocs_per_cell absent) must not
	// trip the alloc gate: zero means unrecorded, not zero-cost.
	path := writeGuardFile(t, `{
		"global_lock": {"requests_per_sec": 4000},
		"pipelined": {"requests_per_sec": 5000}
	}`)
	r, err := ReadGuardReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.CheckAllocs(60); err != nil {
		t.Fatalf("alloc gate fired on a legacy report: %v", err)
	}
}

func TestGuardChecksEveryConfig(t *testing.T) {
	// The serial config is healthy; the NumCPU config regressed. Both the
	// speedup and alloc gates must look past the first entry.
	path := writeGuardFile(t, `{
		"configs": [
			{
				"label": "gomaxprocs-1",
				"global_lock": {"requests_per_sec": 4000, "allocs_per_cell": 80},
				"pipelined": {"requests_per_sec": 5000, "allocs_per_cell": 40}
			},
			{
				"label": "gomaxprocs-numcpu",
				"global_lock": {"requests_per_sec": 4000, "allocs_per_cell": 80},
				"pipelined": {"requests_per_sec": 3000, "allocs_per_cell": 90}
			}
		]
	}`)
	r, err := ReadGuardReport(path)
	if err != nil {
		t.Fatal(err)
	}
	err = r.CheckSpeedup(1.0)
	if err == nil || !strings.Contains(err.Error(), "gomaxprocs-numcpu") {
		t.Fatalf("speedup gate missed the second config: %v", err)
	}
	err = r.CheckAllocs(60)
	if err == nil || !strings.Contains(err.Error(), "gomaxprocs-numcpu") {
		t.Fatalf("alloc gate missed the second config: %v", err)
	}
	if s := r.Speedup(); s != 0.75 {
		t.Fatalf("Speedup() = %v, want the worst config's 0.75", s)
	}
}

func TestGuardDetectsObservabilityOverhead(t *testing.T) {
	path := writeGuardFile(t, `{
		"global_lock": {"requests_per_sec": 4000},
		"pipelined": {"requests_per_sec": 5000},
		"observability": {
			"tracing_on_ns_per_cell": 120,
			"tracing_off_ns_per_cell": 100,
			"overhead_ratio": 1.2
		}
	}`)
	r, err := ReadGuardReport(path)
	if err != nil {
		t.Fatal(err)
	}
	err = r.CheckObservabilityOverhead(1.05)
	if err == nil {
		t.Fatal("guard accepted a 1.2x observability overhead against a 1.05x budget")
	}
	if !strings.Contains(err.Error(), "1.200x") {
		t.Fatalf("error %q does not report the measured ratio", err)
	}
	if err := r.CheckObservabilityOverhead(1.25); err != nil {
		t.Fatalf("budget 1.25 must accept ratio 1.2: %v", err)
	}
}

func TestGuardDetectsInconsistentObservabilityRecord(t *testing.T) {
	path := writeGuardFile(t, `{
		"global_lock": {"requests_per_sec": 4000},
		"pipelined": {"requests_per_sec": 5000},
		"observability": {
			"tracing_on_ns_per_cell": 101,
			"tracing_off_ns_per_cell": 100,
			"overhead_ratio": 0.5
		}
	}`)
	r, err := ReadGuardReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.CheckObservabilityOverhead(1.05); err == nil {
		t.Fatal("guard accepted an observability record whose ratio disagrees with its inputs")
	}
}

func TestGuardObservabilitySkipsLegacyReports(t *testing.T) {
	// A report recorded before the observability layer (section absent)
	// must pass the overhead gate untouched.
	path := writeGuardFile(t, `{
		"global_lock": {"requests_per_sec": 4000},
		"pipelined": {"requests_per_sec": 5000}
	}`)
	r, err := ReadGuardReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.CheckObservabilityOverhead(1.05); err != nil {
		t.Fatalf("overhead gate fired on a legacy report: %v", err)
	}
}

func TestGuardDetectsJournalOverhead(t *testing.T) {
	path := writeGuardFile(t, `{
		"global_lock": {"requests_per_sec": 4000},
		"pipelined": {"requests_per_sec": 5000},
		"durability": {
			"journal_on_ns_per_cell": 130,
			"journal_off_ns_per_cell": 100,
			"overhead_ratio": 1.3
		}
	}`)
	r, err := ReadGuardReport(path)
	if err != nil {
		t.Fatal(err)
	}
	err = r.CheckJournalOverhead(1.10)
	if err == nil {
		t.Fatal("guard accepted a 1.3x journal overhead against a 1.10x budget")
	}
	if !strings.Contains(err.Error(), "1.300x") {
		t.Fatalf("error %q does not report the measured ratio", err)
	}
	if err := r.CheckJournalOverhead(1.35); err != nil {
		t.Fatalf("budget 1.35 must accept ratio 1.3: %v", err)
	}
}

func TestGuardDetectsInconsistentDurabilityRecord(t *testing.T) {
	path := writeGuardFile(t, `{
		"global_lock": {"requests_per_sec": 4000},
		"pipelined": {"requests_per_sec": 5000},
		"durability": {
			"journal_on_ns_per_cell": 101,
			"journal_off_ns_per_cell": 100,
			"overhead_ratio": 0.5
		}
	}`)
	r, err := ReadGuardReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.CheckJournalOverhead(1.10); err == nil {
		t.Fatal("guard accepted a durability record whose ratio disagrees with its inputs")
	}
}

func TestGuardDurabilitySkipsLegacyReports(t *testing.T) {
	// A report recorded before the durable journal (section absent) must
	// pass the overhead gate untouched.
	path := writeGuardFile(t, `{
		"global_lock": {"requests_per_sec": 4000},
		"pipelined": {"requests_per_sec": 5000}
	}`)
	r, err := ReadGuardReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.CheckJournalOverhead(1.10); err != nil {
		t.Fatalf("overhead gate fired on a legacy report: %v", err)
	}
}

func TestGuardDetectsScalingRegression(t *testing.T) {
	path := writeGuardFile(t, `{
		"global_lock": {"requests_per_sec": 4000},
		"pipelined": {"requests_per_sec": 5000},
		"scaling": {
			"points": [
				{"pools": 1, "requests_per_sec": 300},
				{"pools": 2, "requests_per_sec": 360}
			],
			"speedup_2_pools_over_1": 1.2
		}
	}`)
	r, err := ReadGuardReport(path)
	if err != nil {
		t.Fatal(err)
	}
	err = r.CheckScaling(1.5)
	if err == nil {
		t.Fatal("guard accepted a 1.2x pool speedup against a 1.5x floor")
	}
	if !strings.Contains(err.Error(), "1.200x") {
		t.Fatalf("error %q does not report the measured ratio", err)
	}
	if err := r.CheckScaling(1.1); err != nil {
		t.Fatalf("floor 1.1 must accept ratio 1.2: %v", err)
	}
}

func TestGuardDetectsInconsistentScalingRecord(t *testing.T) {
	path := writeGuardFile(t, `{
		"global_lock": {"requests_per_sec": 4000},
		"pipelined": {"requests_per_sec": 5000},
		"scaling": {
			"points": [
				{"pools": 1, "requests_per_sec": 300},
				{"pools": 2, "requests_per_sec": 600}
			],
			"speedup_2_pools_over_1": 3.5
		}
	}`)
	r, err := ReadGuardReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.CheckScaling(1.5); err == nil {
		t.Fatal("guard accepted a scaling record whose speedup disagrees with its points")
	}
}

func TestGuardDetectsIncompleteScalingRecord(t *testing.T) {
	path := writeGuardFile(t, `{
		"global_lock": {"requests_per_sec": 4000},
		"pipelined": {"requests_per_sec": 5000},
		"scaling": {"points": [{"pools": 2, "requests_per_sec": 600}]}
	}`)
	r, err := ReadGuardReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.CheckScaling(1.5); err == nil {
		t.Fatal("guard accepted a scaling record without a 1-pool baseline")
	}
}

func TestGuardScalingSkipsLegacyReports(t *testing.T) {
	// A report recorded before device pools (section absent) must pass the
	// scaling gate untouched.
	path := writeGuardFile(t, `{
		"global_lock": {"requests_per_sec": 4000},
		"pipelined": {"requests_per_sec": 5000}
	}`)
	r, err := ReadGuardReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.CheckScaling(1.5); err != nil {
		t.Fatalf("scaling gate fired on a legacy report: %v", err)
	}
}

func TestGuardDetectsPolicyTailRegression(t *testing.T) {
	path := writeGuardFile(t, `{
		"global_lock": {"requests_per_sec": 4000},
		"pipelined": {"requests_per_sec": 5000},
		"policy": {
			"sla_ns": 10000000,
			"static_p99_ns": 50000000,
			"policy_p99_ns": 60000000,
			"static_deadline_misses": 200,
			"policy_deadline_misses": 50,
			"policy_shed": 100,
			"tail_ratio": 1.2
		}
	}`)
	r, err := ReadGuardReport(path)
	if err != nil {
		t.Fatal(err)
	}
	err = r.CheckPolicyTail(1.0)
	if err == nil {
		t.Fatal("guard accepted a 1.2x policy tail against a 1.0x budget")
	}
	if !strings.Contains(err.Error(), "1.200x") {
		t.Fatalf("error %q does not report the measured ratio", err)
	}
	if err := r.CheckPolicyTail(1.25); err != nil {
		t.Fatalf("budget 1.25 must accept ratio 1.2: %v", err)
	}
}

func TestGuardDetectsPolicyMissRegression(t *testing.T) {
	// The tail is fine but shedding bought no deadline protection: the
	// policy arm must miss strictly fewer deadlines than the static arm.
	path := writeGuardFile(t, `{
		"global_lock": {"requests_per_sec": 4000},
		"pipelined": {"requests_per_sec": 5000},
		"policy": {
			"sla_ns": 10000000,
			"static_p99_ns": 50000000,
			"policy_p99_ns": 40000000,
			"static_deadline_misses": 100,
			"policy_deadline_misses": 100,
			"policy_shed": 80,
			"tail_ratio": 0.8
		}
	}`)
	r, err := ReadGuardReport(path)
	if err != nil {
		t.Fatal(err)
	}
	err = r.CheckPolicyTail(1.0)
	if err == nil {
		t.Fatal("guard accepted a policy arm that missed as many deadlines as the static arm")
	}
	if !strings.Contains(err.Error(), "no deadline protection") {
		t.Fatalf("error %q does not explain the miss regression", err)
	}
}

func TestGuardDetectsInconsistentPolicyRecord(t *testing.T) {
	path := writeGuardFile(t, `{
		"global_lock": {"requests_per_sec": 4000},
		"pipelined": {"requests_per_sec": 5000},
		"policy": {
			"static_p99_ns": 50000000,
			"policy_p99_ns": 40000000,
			"static_deadline_misses": 100,
			"policy_deadline_misses": 50,
			"tail_ratio": 2.5
		}
	}`)
	r, err := ReadGuardReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.CheckPolicyTail(1.0); err == nil {
		t.Fatal("guard accepted a policy record whose tail ratio disagrees with its inputs")
	}
}

func TestGuardPolicySkipsLegacyReports(t *testing.T) {
	// A report recorded before the policy layer (section absent) must pass
	// the tail gate untouched.
	path := writeGuardFile(t, `{
		"global_lock": {"requests_per_sec": 4000},
		"pipelined": {"requests_per_sec": 5000}
	}`)
	r, err := ReadGuardReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.CheckPolicyTail(1.0); err != nil {
		t.Fatalf("policy tail gate fired on a legacy report: %v", err)
	}
}

func TestGuardObservabilityClampsSubUnityRatio(t *testing.T) {
	// A recorded ratio below 1.0 is noise, not negative overhead: the gate
	// must treat it as "no measurable overhead" (EffectiveRatio 1.0) and
	// pass it against any budget ≥ 1.0 — including a budget tighter than
	// the raw inverse would suggest.
	path := writeGuardFile(t, `{
		"global_lock": {"requests_per_sec": 4000},
		"pipelined": {"requests_per_sec": 5000},
		"observability": {
			"tracing_on_ns_per_cell": 97.4,
			"tracing_off_ns_per_cell": 100,
			"overhead_ratio": 0.974
		}
	}`)
	r, err := ReadGuardReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Observability.EffectiveRatio(); got != 1.0 {
		t.Fatalf("EffectiveRatio() = %v for a 0.974 raw ratio, want 1.0", got)
	}
	if err := r.CheckObservabilityOverhead(1.0); err != nil {
		t.Fatalf("gate rejected a sub-unity (noise-floor) ratio: %v", err)
	}
}

// TestGuardQuantHasNoSpeedFloor pins the gate's scope: an int8 tier slower
// than float32 is a measurement to report (README "Precision"), not a CI
// failure, while a record without usable timings still is one.
func TestGuardQuantHasNoSpeedFloor(t *testing.T) {
	path := writeGuardFile(t, `{
		"global_lock": {"requests_per_sec": 4000},
		"pipelined": {"requests_per_sec": 5000},
		"quantization": {"cells": [{
			"cell": "gru", "hidden": 64, "batch": 8,
			"f32_ns_per_step": 60000, "int8_ns_per_step": 80000,
			"speedup": 0.75,
			"max_abs_err": 0.03, "min_cosine": 0.9996
		}]}
	}`)
	r, err := ReadGuardReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.CheckQuantRecord(0.08, 0.998); err != nil {
		t.Fatalf("gate rejected a consistent, accurate 0.75x record: %v", err)
	}
	r.Quantization.Cells[0].Int8NsPerStep = 0
	if err := r.CheckQuantRecord(0.08, 0.998); err == nil {
		t.Fatal("gate accepted a record with a zero int8 timing")
	}
	r.Quantization.Cells = nil
	if err := r.CheckQuantRecord(0.08, 0.998); err == nil {
		t.Fatal("gate accepted a record with no cells")
	}
}

func TestGuardDetectsQuantAccuracyRegression(t *testing.T) {
	path := writeGuardFile(t, `{
		"global_lock": {"requests_per_sec": 4000},
		"pipelined": {"requests_per_sec": 5000},
		"quantization": {"cells": [{
			"cell": "gru", "hidden": 64, "batch": 8,
			"f32_ns_per_step": 100000, "int8_ns_per_step": 50000,
			"max_abs_err": 0.15, "min_cosine": 0.9996
		}]}
	}`)
	r, err := ReadGuardReport(path)
	if err != nil {
		t.Fatal(err)
	}
	err = r.CheckQuantRecord(0.08, 0.998)
	if err == nil || !strings.Contains(err.Error(), "0.1500") {
		t.Fatalf("guard accepted 0.15 max abs error against a 0.08 gate: %v", err)
	}
}

func TestGuardDetectsInconsistentQuantRecord(t *testing.T) {
	path := writeGuardFile(t, `{
		"global_lock": {"requests_per_sec": 4000},
		"pipelined": {"requests_per_sec": 5000},
		"quantization": {"cells": [{
			"cell": "lstm", "hidden": 64, "batch": 8,
			"f32_ns_per_step": 100000, "int8_ns_per_step": 50000,
			"speedup": 3.5,
			"max_abs_err": 0.03, "min_cosine": 0.9996
		}]}
	}`)
	r, err := ReadGuardReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.CheckQuantRecord(0.08, 0.998); err == nil {
		t.Fatal("guard accepted a quant record whose speedup disagrees with its timings")
	}
}

func TestGuardQuantSkipsLegacyReports(t *testing.T) {
	// A report recorded before the quantized tier (section absent) must
	// pass the quant gate untouched.
	path := writeGuardFile(t, `{
		"global_lock": {"requests_per_sec": 4000},
		"pipelined": {"requests_per_sec": 5000}
	}`)
	r, err := ReadGuardReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.CheckQuantRecord(0.08, 0.998); err != nil {
		t.Fatalf("quant gate fired on a legacy report: %v", err)
	}
}

func TestGuardRejectsMalformedReports(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"garbage", "not json"},
		{"empty object", "{}"},
		{"zero throughput", `{"global_lock":{"requests_per_sec":0},"pipelined":{"requests_per_sec":10}}`},
		{"negative throughput", `{"global_lock":{"requests_per_sec":10},"pipelined":{"requests_per_sec":-1}}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadGuardReport(writeGuardFile(t, tc.in)); err == nil {
				t.Fatalf("accepted %q", tc.in)
			}
		})
	}
	if _, err := ReadGuardReport(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("accepted a missing file")
	}
}
