package bench

import (
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"batchmaker/internal/journal"
)

// quickLive is the CI-sized workload: small enough to finish in well under a
// second per engine, large enough that batching and contention both happen.
func quickLive() LiveOptions {
	return LiveOptions{Workers: 4, Clients: 24, RequestsPerClient: 10}
}

// TestLiveEnginesAgree is the correctness gate for the benchmark pair: both
// engines must run the full workload without error. (Output equivalence is
// covered by the server package's transparency tests; here the baseline is
// exercised so the comparison in BENCH_server.json measures two working
// engines.)
func TestLiveEnginesAgree(t *testing.T) {
	p, err := RunLivePipelined(quickLive())
	if err != nil {
		t.Fatalf("pipelined: %v", err)
	}
	l, err := RunLiveGlobalLock(quickLive())
	if err != nil {
		t.Fatalf("global-lock: %v", err)
	}
	if p.Requests != l.Requests || p.Cells != l.Cells {
		t.Fatalf("workloads differ: pipelined %d req/%d cells, lock %d req/%d cells",
			p.Requests, p.Cells, l.Requests, l.Cells)
	}
	t.Logf("\n%s", FormatLiveComparison(p, l))
}

// BenchmarkLiveServerPipelined measures the staged-pipeline engine. Compare
// with BenchmarkLiveServerGlobalLock; cells/s for both are recorded in
// BENCH_server.json (see README for the workflow).
func BenchmarkLiveServerPipelined(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := RunLivePipelined(quickLive())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.CellPerSec, "cells/s")
		b.ReportMetric(float64(res.P99.Nanoseconds()), "p99-ns")
	}
}

// BenchmarkLiveServerGlobalLock measures the pre-pipeline baseline.
func BenchmarkLiveServerGlobalLock(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := RunLiveGlobalLock(quickLive())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.CellPerSec, "cells/s")
		b.ReportMetric(float64(res.P99.Nanoseconds()), "p99-ns")
	}
}

// recordPairs runs the two engines as interleaved pairs (alternating which
// goes first) and returns the median pair by throughput ratio: pairing makes
// each ratio immune to slow machine-state drift that independent
// median-per-engine blocks would absorb into the comparison.
func recordPairs(t *testing.T, o LiveOptions, pairs int) (p, l LiveResult, ratio float64) {
	t.Helper()
	type pair struct {
		p, l  LiveResult
		ratio float64
	}
	run := func(f func(LiveOptions) (LiveResult, error)) LiveResult {
		r, err := f(o)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	var ps []pair
	for i := 0; i < pairs; i++ {
		var pr pair
		if i%2 == 0 {
			pr.p = run(RunLivePipelined)
			pr.l = run(RunLiveGlobalLock)
		} else {
			pr.l = run(RunLiveGlobalLock)
			pr.p = run(RunLivePipelined)
		}
		pr.ratio = pr.p.ReqPerSec / pr.l.ReqPerSec
		t.Logf("pair %d: pipelined %.0f req/s, lock %.0f req/s, ratio %.3f",
			i, pr.p.ReqPerSec, pr.l.ReqPerSec, pr.ratio)
		ps = append(ps, pr)
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].ratio < ps[j].ratio })
	med := ps[pairs/2]
	return med.p, med.l, med.ratio
}

// recordObsPairs measures the observability layer's cost: interleaved
// pairs of the pipelined engine with tracing on (production default) and
// off, reported as the median pair's ns/cell ratio. Pairing, as in
// recordPairs, keeps machine-state drift out of the comparison.
func recordObsPairs(t *testing.T, o LiveOptions, pairs int) (on, off LiveResult, ratio float64) {
	t.Helper()
	type pair struct {
		on, off LiveResult
		ratio   float64
	}
	run := func(disabled bool) LiveResult {
		oo := o
		oo.ObsDisabled = disabled
		r, err := RunLivePipelined(oo)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	var ps []pair
	for i := 0; i < pairs; i++ {
		var pr pair
		if i%2 == 0 {
			pr.on = run(false)
			pr.off = run(true)
		} else {
			pr.off = run(true)
			pr.on = run(false)
		}
		pr.ratio = pr.on.NsPerCell() / pr.off.NsPerCell()
		t.Logf("obs pair %d: tracing on %.0f ns/cell, off %.0f ns/cell, ratio %.3f",
			i, pr.on.NsPerCell(), pr.off.NsPerCell(), pr.ratio)
		ps = append(ps, pr)
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].ratio < ps[j].ratio })
	med := ps[pairs/2]
	return med.on, med.off, med.ratio
}

// recordDetectorPairs measures the diagnosis layer's cost: interleaved
// pairs of the pipelined engine with tracing on both sides and the detector
// stack (SLO burn engine + live flight recorder) as the only difference,
// reported as the median pair's ns/cell ratio.
func recordDetectorPairs(t *testing.T, o LiveOptions, pairs int) (on, off LiveResult, ratio float64) {
	t.Helper()
	type pair struct {
		on, off LiveResult
		ratio   float64
	}
	run := func(detector bool) LiveResult {
		oo := o
		oo.Detector = detector
		if detector {
			oo.IncidentDir = t.TempDir()
		}
		r, err := RunLivePipelined(oo)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	var ps []pair
	for i := 0; i < pairs; i++ {
		var pr pair
		if i%2 == 0 {
			pr.on = run(true)
			pr.off = run(false)
		} else {
			pr.off = run(false)
			pr.on = run(true)
		}
		pr.ratio = pr.on.NsPerCell() / pr.off.NsPerCell()
		t.Logf("detector pair %d: detector on %.0f ns/cell, off %.0f ns/cell, ratio %.3f",
			i, pr.on.NsPerCell(), pr.off.NsPerCell(), pr.ratio)
		ps = append(ps, pr)
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].ratio < ps[j].ratio })
	med := ps[pairs/2]
	return med.on, med.off, med.ratio
}

// recordJournalPairs measures the durability layer's cost: interleaved
// pairs of the pipelined engine with the request journal on (sync=batch,
// the production default) and off, reported as the median pair's ns/cell
// ratio. Every journaled run gets a fresh directory so segment state never
// accumulates across pairs.
func recordJournalPairs(t *testing.T, o LiveOptions, pairs int) (on, off LiveResult, ratio float64) {
	t.Helper()
	type pair struct {
		on, off LiveResult
		ratio   float64
	}
	run := func(journaled bool) LiveResult {
		oo := o
		if journaled {
			oo.JournalDir = t.TempDir()
		}
		r, err := RunLivePipelined(oo)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	var ps []pair
	for i := 0; i < pairs; i++ {
		var pr pair
		if i%2 == 0 {
			pr.on = run(true)
			pr.off = run(false)
		} else {
			pr.off = run(false)
			pr.on = run(true)
		}
		pr.ratio = pr.on.NsPerCell() / pr.off.NsPerCell()
		t.Logf("journal pair %d: journal on %.0f ns/cell, off %.0f ns/cell, ratio %.3f",
			i, pr.on.NsPerCell(), pr.off.NsPerCell(), pr.ratio)
		ps = append(ps, pr)
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].ratio < ps[j].ratio })
	med := ps[pairs/2]
	return med.on, med.off, med.ratio
}

// quickScaling is the CI-sized pool-scaling workload.
func quickScaling(pools int) ScalingOptions {
	return ScalingOptions{Pools: pools, Clients: 8, RequestsPerClient: 6}
}

// TestLiveScalingPoolsServeWorkload is the correctness smoke for the
// pool-scaling benchmark: every pool count must serve the full workload.
// The throughput floor itself is gated on the recorded report by
// TestBenchGuard via CheckScaling.
func TestLiveScalingPoolsServeWorkload(t *testing.T) {
	for _, pools := range []int{1, 2, 4} {
		r, err := RunLiveScaling(quickScaling(pools))
		if err != nil {
			t.Fatalf("%d pools: %v", pools, err)
		}
		if want := 8 * 6; r.Requests != want {
			t.Fatalf("%d pools served %d requests, want %d", pools, r.Requests, want)
		}
		t.Logf("%d pools: %.0f req/s p99=%v", pools, r.ReqPerSec, r.P99)
	}
}

// recordScalingPairs measures pool scaling: interleaved pairs of the same
// mixed workload served from 1 and 2 single-worker pools, reported as the
// median pair by speedup. Pairing, as in recordPairs, keeps machine-state
// drift out of the comparison.
func recordScalingPairs(t *testing.T, o ScalingOptions, pairs int) (one, two ScalingResult, ratio float64) {
	t.Helper()
	type pair struct {
		one, two ScalingResult
		ratio    float64
	}
	run := func(pools int) ScalingResult {
		oo := o
		oo.Pools = pools
		r, err := RunLiveScaling(oo)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	var ps []pair
	for i := 0; i < pairs; i++ {
		var pr pair
		if i%2 == 0 {
			pr.one = run(1)
			pr.two = run(2)
		} else {
			pr.two = run(2)
			pr.one = run(1)
		}
		pr.ratio = pr.two.ReqPerSec / pr.one.ReqPerSec
		t.Logf("scaling pair %d: 1 pool %.0f req/s, 2 pools %.0f req/s, ratio %.3f",
			i, pr.one.ReqPerSec, pr.two.ReqPerSec, pr.ratio)
		ps = append(ps, pr)
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].ratio < ps[j].ratio })
	med := ps[pairs/2]
	return med.one, med.two, med.ratio
}

// quickPolicy is the CI-sized bursty policy workload (one arm).
func quickPolicy(on bool) PolicyOptions {
	return PolicyOptions{PolicyOn: on, Requests: 150}
}

// TestLivePolicyServeWorkload is the correctness smoke for the policy
// benchmark: both arms must account for every arrival (served + shed =
// offered) with no failures. The tail/miss comparison itself is gated on the
// recorded report by TestBenchGuard via CheckPolicyTail.
func TestLivePolicyServeWorkload(t *testing.T) {
	for _, on := range []bool{false, true} {
		r, err := RunLivePolicy(quickPolicy(on))
		if err != nil {
			t.Fatalf("policy=%v: %v", on, err)
		}
		if r.Served+r.Shed != r.Requests {
			t.Fatalf("policy=%v: %d served + %d shed != %d offered — arrivals vanished",
				on, r.Served, r.Shed, r.Requests)
		}
		if !on && r.Shed != 0 {
			t.Fatalf("static arm shed %d requests with no gate installed", r.Shed)
		}
		t.Logf("policy=%v: served=%d shed=%d misses=%d p50=%v p99=%v",
			on, r.Served, r.Shed, r.DeadlineMisses, r.P50, r.P99)
	}
}

// recordPolicyPairs measures the adaptive policy's burst behavior:
// interleaved pairs of the same scripted burst with the policy stack on and
// off, reported as the median pair by tail ratio. Pairing, as in recordPairs,
// keeps machine-state drift out of the comparison.
func recordPolicyPairs(t *testing.T, o PolicyOptions, pairs int) (static, pol PolicyResult, ratio float64) {
	t.Helper()
	type pair struct {
		static, pol PolicyResult
		ratio       float64
	}
	run := func(on bool) PolicyResult {
		oo := o
		oo.PolicyOn = on
		r, err := RunLivePolicy(oo)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	var ps []pair
	for i := 0; i < pairs; i++ {
		var pr pair
		if i%2 == 0 {
			pr.static = run(false)
			pr.pol = run(true)
		} else {
			pr.pol = run(true)
			pr.static = run(false)
		}
		pr.ratio = float64(pr.pol.P99) / float64(pr.static.P99)
		t.Logf("policy pair %d: static p99=%v (%d misses), policy p99=%v (%d misses, %d shed), ratio %.3f",
			i, pr.static.P99, pr.static.DeadlineMisses, pr.pol.P99, pr.pol.DeadlineMisses, pr.pol.Shed, pr.ratio)
		ps = append(ps, pr)
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].ratio < ps[j].ratio })
	med := ps[pairs/2]
	return med.static, med.pol, med.ratio
}

// TestLiveJournaledEngineConverges is the correctness gate for the journaled
// benchmark arm: the journal-on run must serve the full workload, and its
// journal must converge — every admitted request durably terminal, nothing
// pending, nothing duplicated — so the durability comparison measures a
// working configuration.
func TestLiveJournaledEngineConverges(t *testing.T) {
	o := quickLive()
	o.JournalDir = t.TempDir()
	res, err := RunLivePipelined(o)
	if err != nil {
		t.Fatalf("journaled run: %v", err)
	}
	if res.Requests != o.Clients*o.RequestsPerClient {
		t.Fatalf("served %d requests, want %d", res.Requests, o.Clients*o.RequestsPerClient)
	}
	rec, err := journal.Recover(o.JournalDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Pending) != 0 || rec.DuplicateAdmits != 0 || rec.DuplicateTerminals != 0 {
		t.Fatalf("journal did not converge: %d pending, %d duplicate admits, %d duplicate terminals",
			len(rec.Pending), rec.DuplicateAdmits, rec.DuplicateTerminals)
	}
	if len(rec.Terminal) != res.Requests {
		t.Fatalf("journal holds %d terminals for %d served requests", len(rec.Terminal), res.Requests)
	}
}

// TestQuantMeasurementRuns is the correctness smoke for the quantization
// benchmark: a short paired run must produce positive timings for both
// tiers and drift inside the rnn package's accuracy gates. The ratio is
// logged, not gated: see CheckQuantRecord.
func TestQuantMeasurementRuns(t *testing.T) {
	rs, err := MeasureQuantization(QuantOptions{Steps: 32, Reps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("measured %d cells, want lstm and gru", len(rs))
	}
	for _, r := range rs {
		if r.F32NsPerStep <= 0 || r.Int8NsPerStep <= 0 {
			t.Fatalf("%s: non-positive timing (f32=%.0f int8=%.0f)", r.Cell, r.F32NsPerStep, r.Int8NsPerStep)
		}
		if r.MaxAbsErr > ciQuantMaxAbsErr || r.MinCosine < ciQuantMinCosine {
			t.Fatalf("%s: drift out of gate (maxAbsErr=%.4f minCos=%.5f)", r.Cell, r.MaxAbsErr, r.MinCosine)
		}
		t.Logf("%s: f32 %.0f ns/step, int8 %.0f ns/step (%.2fx)", r.Cell, r.F32NsPerStep, r.Int8NsPerStep, r.Speedup)
	}
}

// TestRecordLiveBench regenerates BENCH_server.json at the repo root with
// one config entry per GOMAXPROCS setting: serial (1) and NumCPU. On a
// single-CPU machine the two entries are independent runs of the same
// setting — recorded as measured, not synthesized. It only runs when
// BENCH_RECORD=1 (see README "Benchmarks").
func TestRecordLiveBench(t *testing.T) {
	if os.Getenv("BENCH_RECORD") != "1" {
		t.Skip("set BENCH_RECORD=1 to rewrite BENCH_server.json")
	}
	o := LiveOptions{Workers: 4, Clients: 24, RequestsPerClient: 40}.withDefaults()
	const pairs = 7
	settings := []struct {
		label string
		procs int
	}{
		{"gomaxprocs-1", 1},
		{"gomaxprocs-numcpu", runtime.NumCPU()},
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	var configs []map[string]any
	for _, set := range settings {
		runtime.GOMAXPROCS(set.procs)
		t.Logf("=== %s (GOMAXPROCS=%d) ===", set.label, set.procs)
		p, l, ratio := recordPairs(t, o, pairs)
		configs = append(configs, map[string]any{
			"label":               set.label,
			"gomaxprocs":          set.procs,
			"pipelined":           p,
			"global_lock":         l,
			"speedup_req_per_sec": ratio,
		})
		t.Logf("\n%s", FormatLiveComparison(p, l))
	}
	runtime.GOMAXPROCS(prev)
	t.Logf("=== observability overhead (GOMAXPROCS=%d) ===", prev)
	obsOn, obsOff, obsRatio := recordObsPairs(t, o, pairs)
	t.Logf("=== detector overhead (GOMAXPROCS=%d) ===", prev)
	detOn, detOff, detRatio := recordDetectorPairs(t, o, pairs)
	t.Logf("=== durability overhead (GOMAXPROCS=%d) ===", prev)
	jnlOn, jnlOff, jnlRatio := recordJournalPairs(t, o, pairs)
	t.Logf("=== pool scaling (GOMAXPROCS=%d) ===", prev)
	so := ScalingOptions{Clients: 16, RequestsPerClient: 10}
	sOne, sTwo, sRatio := recordScalingPairs(t, so, pairs)
	sFour, err := RunLiveScaling(func() ScalingOptions { oo := so; oo.Pools = 4; return oo }())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("scaling: 4 pools %.0f req/s", sFour.ReqPerSec)
	t.Logf("=== adaptive policy burst (GOMAXPROCS=%d) ===", prev)
	po := PolicyOptions{}.withDefaults()
	pStatic, pPolicy, pRatio := recordPolicyPairs(t, po, pairs)
	if pPolicy.DeadlineMisses >= pStatic.DeadlineMisses {
		t.Fatalf("median policy pair regressed deadline misses (%d policy vs %d static) — not recording a failing report",
			pPolicy.DeadlineMisses, pStatic.DeadlineMisses)
	}
	t.Logf("=== quantized execution tier (GOMAXPROCS=%d) ===", prev)
	qo := QuantOptions{Reps: pairs}.withDefaults()
	qCells, err := MeasureQuantization(qo)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", FormatQuantComparison(qCells))
	out := map[string]any{
		"benchmark": "live-server-throughput",
		"recorded":  time.Now().UTC().Format("2006-01-02"),
		"go":        runtime.Version(),
		"numcpu":    runtime.NumCPU(),
		"pairs":     pairs,
		"options":   o,
		"configs":   configs,
		"observability": map[string]any{
			"tracing_on_ns_per_cell":   obsOn.NsPerCell(),
			"tracing_off_ns_per_cell":  obsOff.NsPerCell(),
			"overhead_ratio":           obsRatio,
			"detector_on_ns_per_cell":  detOn.NsPerCell(),
			"detector_off_ns_per_cell": detOff.NsPerCell(),
			"detector_overhead_ratio":  detRatio,
		},
		"durability": map[string]any{
			"journal_on_ns_per_cell":  jnlOn.NsPerCell(),
			"journal_off_ns_per_cell": jnlOff.NsPerCell(),
			"overhead_ratio":          jnlRatio,
		},
		"scaling": map[string]any{
			"options": so.withDefaults(),
			"points": []map[string]any{
				{"pools": 1, "requests_per_sec": sOne.ReqPerSec},
				{"pools": 2, "requests_per_sec": sTwo.ReqPerSec},
				{"pools": 4, "requests_per_sec": sFour.ReqPerSec},
			},
			"speedup_2_pools_over_1": sRatio,
		},
		"policy": map[string]any{
			"options":                po,
			"sla_ns":                 float64(po.SLA.Nanoseconds()),
			"static_p99_ns":          float64(pStatic.P99.Nanoseconds()),
			"policy_p99_ns":          float64(pPolicy.P99.Nanoseconds()),
			"static_deadline_misses": pStatic.DeadlineMisses,
			"policy_deadline_misses": pPolicy.DeadlineMisses,
			"policy_shed":            pPolicy.Shed,
			"tail_ratio":             pRatio,
		},
		"quantization": quantSection(qo, qCells),
	}
	writeBenchReport(t, out)
}

// quantSection is the "quantization" record with the environment it was
// measured in, so the section can be re-recorded on its own.
func quantSection(qo QuantOptions, cells []QuantResult) map[string]any {
	return map[string]any{
		"recorded":   time.Now().UTC().Format("2006-01-02"),
		"go":         runtime.Version(),
		"numcpu":     runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"options":    qo,
		"cells":      cells,
	}
}

func writeBenchReport(t *testing.T, out any) {
	t.Helper()
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("../../BENCH_server.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRecordQuantBench re-records only the "quantization" section of
// BENCH_server.json, leaving every other section as recorded. It only runs
// when BENCH_RECORD=1.
func TestRecordQuantBench(t *testing.T) {
	if os.Getenv("BENCH_RECORD") != "1" {
		t.Skip("set BENCH_RECORD=1 to rewrite the quantization section of BENCH_server.json")
	}
	data, err := os.ReadFile("../../BENCH_server.json")
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]json.RawMessage // raw: other sections keep their bytes
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	qo := QuantOptions{Reps: 7}.withDefaults()
	cells, err := MeasureQuantization(qo)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", FormatQuantComparison(cells))
	if out["quantization"], err = json.Marshal(quantSection(qo, cells)); err != nil {
		t.Fatal(err)
	}
	writeBenchReport(t, out)
}
