package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"batchmaker/internal/server"
)

// These tests start no workload and no server; they pin the generator's
// arithmetic.

func TestScheduleIsAPureFunctionOfSeed(t *testing.T) {
	for _, w := range workloads {
		a := buildSchedule(w, 7, segmentWindow)
		b := buildSchedule(w, 7, segmentWindow)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave two different schedules", w.name)
		}
		c := buildSchedule(w, 8, segmentWindow)
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", w.name)
		}
		// The offered load must not depend on the seed: same request count,
		// same multiset of request sizes.
		if len(a) != len(c) || totalCells(a) != totalCells(c) {
			t.Errorf("%s: seed changed the offered work: %d requests of %d cells vs %d of %d",
				w.name, len(a), totalCells(a), len(c), totalCells(c))
		}
		for i := 1; i < len(a); i++ {
			if a[i].due < a[i-1].due || a[i].due >= segmentWindow {
				t.Fatalf("%s: due times must be sorted and inside the window", w.name)
			}
		}
	}
	if got, want := len(buildSchedule(workloadByName("seq2seq_open"), 1, segmentWindow)), 200; got != want {
		t.Errorf("seq2seq_open offers %d requests in a window, want %d", got, want)
	}
	inBurst := 0
	for _, it := range buildSchedule(workloadByName("burst_policy"), 1, segmentWindow) {
		if burstAt := segmentWindow - burstLead; it.due >= burstAt && it.due < burstAt+burstSpan {
			inBurst++
		}
		if len(it.src) != 24 || it.dec != 24 {
			t.Fatalf("burst_policy sentence of %d→%d words, want the fixed 24→24", len(it.src), it.dec)
		}
	}
	if inBurst < 48 || inBurst > 52 { // the 48 of the burst plus the calm arrivals of those 20 ms
		t.Errorf("%d requests due inside the burst, want the burst's 48 (and a calm one or two)", inBurst)
	}
}

// A stalled target must show in the latency of the requests that were due
// during the stall, even though each of them is answered at once when it is
// finally sent: latency runs from the due time, not the send time.
func TestLatencyRunsFromDueTime(t *testing.T) {
	const n, gap, stallAt, stall = 60, time.Millisecond, 10, 30 * time.Millisecond
	items := make([]item, n)
	for i := range items {
		items[i].due = time.Duration(i) * gap
	}
	res := make([]result, n)
	t0 := time.Now()
	runOpenLoop(t0, items, 1, timerSleepUntil, func(_, i int) {
		res[i].start = time.Since(t0)
		if i == stallAt {
			time.Sleep(stall)
		}
		res[i].done = time.Since(t0)
		res[i].outcome = ok
	})
	tl := tallyResults(items, res, time.Second)
	// Request 20 was due 10 ms into the 30 ms stall: it waited about 20 ms.
	victim := stallAt + 10
	if fromDue := tl.LatMs[victim]; fromDue < 15 {
		t.Errorf("request %d: latency from due time is %.2f ms, want the ~20 ms it waited behind the stall", victim, fromDue)
	}
	if fromSend := ms(res[victim].done - res[victim].start); fromSend > 5 {
		t.Errorf("request %d: send-to-reply took %.2f ms; the fake target answers at once", victim, fromSend)
	}
	if tl.LateMs[victim] < 15 {
		t.Errorf("request %d: generator lateness %.2f ms not reported", victim, tl.LateMs[victim])
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	q1, q3 = quartiles([]float64{5, 4, 3, 2, 1})
	if q1 != 1.5 || q3 != 4.5 {
		t.Errorf("quartiles(1..5) = %v, %v; want 1.5, 4.5", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles(1, 2) = %v, %v; want 0.75, 2.25", q1, q3)
	}
	if q1, _ := quartiles([]float64{1}); !math.IsNaN(q1) {
		t.Errorf("quartiles of one value = %v, want NaN", q1)
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("median of nothing = %v", m)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for p, want := range map[float64]float64{50: 50, 90: 90, 99: 99, 100: 100, 0.5: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("p%v of 1..100 = %v, want %v", p, got, want)
		}
	}
}

// A percentile is reported only with at least ten samples beyond it.
func TestSupportedTail(t *testing.T) {
	for n, want := range map[int]float64{10: 0, 99: 0, 100: 90, 999: 90, 1000: 99, 9999: 99, 10000: 99.9} {
		if got := supportedTail(n); got != want {
			t.Errorf("supportedTail(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	d := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{"request", d(0), d(100), -1, 0},
		{"a", d(10), d(30), 0, 0},
		{"b", d(20), d(50), 0, 0}, // overlaps a: 20–30 must not count twice
		{"c", d(60), d(70), 0, 0},
		{"d", d(95), d(120), 0, 0}, // runs past its parent: only 95–100 counts
		{"grandchild", d(12), d(14), 1, 0},
		{"other request", d(0), d(40), -1, 1},
	}
	self := selfTimes(spans)
	// children cover 10–50, 60–70, 95–100 = 55 ms of the parent's 100
	for i, want := range []time.Duration{d(45), d(18), d(30), d(10), d(25), d(2), d(40)} {
		if self[i] != want {
			t.Errorf("self time of %q = %v, want %v", spans[i].name, self[i], want)
		}
	}
}

func TestRequestSpansNestUnderTheRequest(t *testing.T) {
	items := []item{{due: 5 * time.Millisecond}}
	res := []result{{start: 6 * time.Millisecond, sent: 7 * time.Millisecond, mid: 8 * time.Millisecond, done: 20 * time.Millisecond, outcome: ok}}
	spans := requestSpans(items, res, false)
	if len(spans) != 4 || spans[0].name != "request" || spans[0].start != items[0].due || spans[0].end != res[0].done {
		t.Fatalf("unexpected spans %+v", spans)
	}
	for _, s := range spans[1:] {
		if s.parent != 0 || s.req != 0 || s.start < spans[0].start || s.end > spans[0].end {
			t.Errorf("span %+v is not a child inside the request span", s)
		}
	}
	// Self time of the request is the 1 ms the generator ran late.
	if self := selfTimes(spans)[0]; self != time.Millisecond {
		t.Errorf("request self time %v, want the 1ms between due and start", self)
	}
}

// Shedding and expiry are answers the server's contract defines; they miss
// the latency limit but they are not failed operations.
func TestOutcomeClassification(t *testing.T) {
	errs := []struct {
		err     error
		want    outcome
		expired bool
	}{
		{nil, ok, false},
		{server.ErrOverloaded, refused, false},
		{&server.OverloadError{EstWait: time.Second}, refused, false},
		{fmt.Errorf("%w: deadline passed before admission", server.ErrExpired), refused, true},
		{server.ErrStopped, failed, false},
		{server.ErrCellPanic, failed, false},
		{fmt.Errorf("anything else"), failed, false},
	}
	for _, c := range errs {
		if o, exp := classifyErr(c.err); o != c.want || exp != c.expired {
			t.Errorf("classifyErr(%v) = %v, %v; want %v, %v", c.err, o, exp, c.want, c.expired)
		}
	}
	codes := map[string]outcome{"": ok, "overloaded": refused, "expired": refused,
		"internal": failed, "bad_request": failed, "cancelled": failed, "stopped": failed, "draining": failed}
	for code, want := range codes {
		if o, exp := classifyCode(code); o != want || exp != (code == "expired") {
			t.Errorf("classifyCode(%q) = %v, %v; want %v", code, o, exp, want)
		}
	}
}

func TestTallyAccounting(t *testing.T) {
	items := make([]item, 5)
	res := []result{
		{done: 5 * time.Millisecond, outcome: ok},
		{done: 50 * time.Millisecond, outcome: ok}, // a reply, but past the limit
		{done: time.Millisecond, outcome: refused},
		{done: time.Millisecond, outcome: refused, expired: true},
		{}, // never answered
	}
	tl := tallyResults(items, res, 10*time.Millisecond)
	if tl.Sent != 5 || tl.OK != 2 || tl.Refused != 2 || tl.Expired != 1 || tl.Failed != 1 || tl.InLimit != 1 {
		t.Errorf("tally %+v", tl)
	}
	if tl.Sent != tl.OK+tl.Refused+tl.Failed {
		t.Errorf("sent %d != ok %d + refused %d + failed %d", tl.Sent, tl.OK, tl.Refused, tl.Failed)
	}
	if len(tl.LatMs) != 2 || tl.LastDone != 50*time.Millisecond {
		t.Errorf("latency sample %v, last reply %v", tl.LatMs, tl.LastDone)
	}
}

// The generator's health check compares whole cell counts: (sum/n)*n does not
// round-trip in float64 for every schedule (tree_tiny's 3 s window is one:
// 2400 requests, 87404 cells).
func TestCheckCellsIsExact(t *testing.T) {
	for _, w := range workloads {
		for _, window := range []time.Duration{segmentWindow, 3 * time.Second, 4 * time.Second, 8 * time.Second} {
			items := buildSchedule(w, 1, window)
			served := &segResult{tally: tally{Sent: len(items), OK: len(items)}}
			if err := checkCells(served, int64(totalCells(items)), totalCells(items)); err != nil {
				t.Errorf("%s, %v window: a fully served schedule was rejected: %v", w.name, window, err)
			}
			if err := checkCells(served, int64(totalCells(items))-1, totalCells(items)); err == nil {
				t.Errorf("%s, %v window: one missing cell went unnoticed", w.name, window)
			}
		}
	}
	shed := &segResult{tally: tally{Sent: 10, OK: 9, Refused: 1}}
	if err := checkCells(shed, 5, 100); err != nil {
		t.Errorf("a segment with refusals runs fewer cells by design: %v", err)
	}
}

// A run's value is the median over its segments, whichever form measured them.
func TestMediansOverSegments(t *testing.T) {
	var segs []*segResult
	for _, cpu := range []float64{3, 1, 2} {
		segs = append(segs, &segResult{SetupS: cpu, CPUSeconds: cpu, ElapsedS: 1, PeakRSSMB: cpu,
			tally: tally{OK: 1000, InLimit: 1000, LatMs: []float64{cpu, cpu, cpu}}})
	}
	by := segmentValues(segs)
	if !reflect.DeepEqual(by["cpu_ms_per_req"], []float64{3, 1, 2}) {
		t.Errorf("segment values %v, want them raw and in segment order", by["cpu_ms_per_req"])
	}
	for name, v := range medians(by) {
		if want := map[string]float64{"goodput_rps": 1000}[name]; want == 0 && v != 2 || want != 0 && v != want {
			t.Errorf("%s = %v", name, v)
		}
	}
}

func TestSampledRepliesAreCapped(t *testing.T) {
	n := 0
	for i := 0; i < 10000; i++ {
		if sampled(i) {
			n++
		}
	}
	if n != sampleCap {
		t.Errorf("%d replies sampled of 10000, want the cap of %d", n, sampleCap)
	}
}

// Every metric the catalogue names must be unique and fit BENCHMARK.json's
// naming rules, or the driver refuses the file before a single run.
func TestMetricCatalogue(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.name] || len(d.name) > 64 || len(d.unit) > 16 || d.unit == "" {
			t.Errorf("bad or duplicate metric %+v", d)
		}
		seen[d.name] = true
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128 allowed", len(perLayer))
	}

	// BENCHMARK.json must name exactly the catalogue's metrics with the same
	// units, and the run length the windows are sized for.
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		RunSeconds int                           `json:"run_seconds"`
		EndToEnd   []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer   []struct{ Name, Unit string } `json:"per_layer"`
		Workloads  []struct{ Name string }
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if got := time.Duration(doc.RunSeconds) * time.Second / rounds; got != segmentWindow {
		t.Errorf("run_seconds %d gives windows of %v, the suite uses %v", doc.RunSeconds, got, segmentWindow)
	}
	same := func(kind string, defs []metricDef, listed []struct{ Name, Unit string }) {
		if len(defs) != len(listed) {
			t.Errorf("BENCHMARK.json lists %d %s metrics, the catalogue %d", len(listed), kind, len(defs))
			return
		}
		for i, d := range defs {
			if listed[i].Name != d.name || listed[i].Unit != d.unit {
				t.Errorf("BENCHMARK.json %s metric %d is %+v, the catalogue says %+v", kind, i, listed[i], d)
			}
		}
	}
	same("end_to_end", endToEnd, doc.EndToEnd)
	same("per_layer", perLayer, doc.PerLayer)
	for i, w := range workloads {
		if i >= len(doc.Workloads) || doc.Workloads[i].Name != w.name {
			t.Errorf("BENCHMARK.json does not list workload %d, %s", i, w.name)
		}
	}
}
