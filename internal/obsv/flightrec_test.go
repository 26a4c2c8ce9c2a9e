package obsv

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// bundleFiles is the complete manifest every bundle must contain (plus
// health.json when a Health source is wired).
var bundleFiles = []string{
	"incident.json", "metrics.prom", "trace.json", "requests.jsonl",
	"rings.json", "goroutines.txt", "heap.pprof",
}

func listBundles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestFlightRecorderForceWritesOneCompleteBundle is the acceptance test:
// a forced incident produces exactly one bundle, atomic (no .tmp residue),
// with every diagnosis artifact present and parseable.
func TestFlightRecorderForceWritesOneCompleteBundle(t *testing.T) {
	o := traceObserver()
	dir := t.TempDir()
	fr, err := NewFlightRecorder(o, FlightRecorderConfig{
		Dir:    dir,
		Health: func() Health { return Health{Status: "serving"} },
	})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now().UnixNano()
	path, err := fr.Force("", now)
	if err != nil {
		t.Fatal(err)
	}
	if path == "" {
		t.Fatal("forced incident wrote no bundle")
	}
	// Re-forcing inside the debounce window must NOT write a second bundle.
	if p2, err := fr.Force("again", now+int64(time.Second)); err != nil || p2 != "" {
		t.Fatalf("debounced force should be a silent no-op, got path=%q err=%v", p2, err)
	}
	names := listBundles(t, dir)
	if len(names) != 1 {
		t.Fatalf("spool holds %d entries, want exactly one bundle: %v", len(names), names)
	}
	if strings.HasSuffix(names[0], ".tmp") {
		t.Fatalf("bundle left staged as %s — rename never happened", names[0])
	}
	if !strings.HasPrefix(names[0], "incident-000001-forced") {
		t.Fatalf("bundle name %q", names[0])
	}

	for _, f := range append(append([]string{}, bundleFiles...), "health.json") {
		st, err := os.Stat(filepath.Join(path, f))
		if err != nil {
			t.Fatalf("bundle missing %s: %v", f, err)
		}
		if st.Size() == 0 && f != "requests.jsonl" {
			t.Fatalf("bundle artifact %s is empty", f)
		}
	}

	var inc Incident
	data, err := os.ReadFile(filepath.Join(path, "incident.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &inc); err != nil {
		t.Fatalf("incident.json: %v", err)
	}
	if inc.Reason != IncidentForced || inc.UnixNs != now || inc.Seq != 1 {
		t.Fatalf("manifest %+v", inc)
	}
	if len(inc.Rings) == 0 {
		t.Fatal("manifest carries no ring stats")
	}

	var doc decodedTrace
	data, err = os.ReadFile(filepath.Join(path, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace.json: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("bundle trace is empty for a populated observer")
	}

	data, err = os.ReadFile(filepath.Join(path, "metrics.prom"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "batchmaker_requests_total") {
		t.Fatal("metrics.prom is not a Prometheus exposition")
	}
}

// TestFlightRecorderLatchesPerRule: a persistently-true condition fires
// once, stays latched across ticks, and re-arms only after clearing. The
// debounce is set to 1ns so the latch — not the debounce — is what is
// being proven.
func TestFlightRecorderLatchesPerRule(t *testing.T) {
	o := NewObserver(NewRegistry(), 8)
	fr, err := NewFlightRecorder(o, FlightRecorderConfig{
		Dir:      t.TempDir(),
		Debounce: time.Nanosecond,
		SLA:      10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now().UnixNano()
	tick := func(d time.Duration) []string {
		now += int64(d)
		return fr.Evaluate(now)
	}

	if fired := tick(0); len(fired) != 0 {
		t.Fatalf("healthy metrics fired %v", fired)
	}
	o.Metrics.Queuing.Observe(50 * time.Millisecond) // P99 breach vs the 10ms SLA
	if fired := tick(time.Second); len(fired) != 1 {
		t.Fatalf("SLA breach should fire exactly one bundle, got %v", fired)
	}
	if fired := tick(time.Second); len(fired) != 0 {
		t.Fatalf("latched rule re-fired: %v", fired)
	}
	// The quantile window decays after its horizon; simulate clearing by
	// observing fast samples until P99 is back under the SLA, then breach
	// again — the rule must have re-armed.
	for i := 0; i < 2000; i++ {
		o.Metrics.Queuing.Observe(time.Microsecond)
	}
	if fired := tick(time.Second); len(fired) != 0 {
		t.Fatalf("cleared condition fired %v", fired)
	}
	for i := 0; i < 2000; i++ {
		o.Metrics.Queuing.Observe(time.Second)
	}
	if fired := tick(time.Second); len(fired) != 1 {
		t.Fatalf("re-armed rule should fire again, got %v", fired)
	}
}

// TestFlightRecorderShedBurstRule covers the delta-based rule: a burst of
// rejections fires once.
func TestFlightRecorderShedBurstRule(t *testing.T) {
	o := NewObserver(NewRegistry(), 8)
	fr, err := NewFlightRecorder(o, FlightRecorderConfig{
		Dir:      t.TempDir(),
		Debounce: time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now().UnixNano()

	o.Metrics.Rejected.Add(3) // under the default burst of 10
	if fired := fr.Evaluate(now); len(fired) != 0 {
		t.Fatalf("3 rejections fired %v", fired)
	}
	o.Metrics.Rejected.Add(20)
	now += int64(time.Second)
	fired := fr.Evaluate(now)
	if len(fired) != 1 || !strings.Contains(fired[0], IncidentShedBurst) {
		t.Fatalf("shed burst: %v", fired)
	}
}

// TestFlightRecorderSLOAndHealthRules covers the wired-source rules: SLO
// multi-window burn and journal degradation.
func TestFlightRecorderSLOAndHealthRules(t *testing.T) {
	o := NewObserver(NewRegistry(), 8)
	slo := NewSLOEngine(nil, 0.99, 0)
	degraded := false
	fr, err := NewFlightRecorder(o, FlightRecorderConfig{
		Dir:      t.TempDir(),
		Debounce: time.Nanosecond,
		SLO:      slo,
		Health:   func() Health { return Health{JournalDegraded: degraded} },
	})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now().UnixNano()
	if fired := fr.Evaluate(now); len(fired) != 0 {
		t.Fatalf("quiet start fired %v", fired)
	}
	for i := 0; i < 10; i++ {
		slo.Observe(0, false, now) // 100% bad: burn far above 1 in both windows
	}
	fired := fr.Evaluate(now)
	if len(fired) != 1 || !strings.Contains(fired[0], IncidentSLOBurn) {
		t.Fatalf("slo burn: %v", fired)
	}

	degraded = true
	now += int64(time.Second)
	fired = fr.Evaluate(now)
	if len(fired) != 1 || !strings.Contains(fired[0], IncidentJournalDegrade) {
		t.Fatalf("journal degrade: %v", fired)
	}
}

// TestFlightRecorderSpoolBound: the spool never holds more than MaxBundles
// bundles; the oldest go first.
func TestFlightRecorderSpoolBound(t *testing.T) {
	dir := t.TempDir()
	fr, err := NewFlightRecorder(NewObserver(NewRegistry(), 8), FlightRecorderConfig{
		Dir:        dir,
		MaxBundles: 2,
		Debounce:   time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now().UnixNano()
	for i := 0; i < 4; i++ {
		now += int64(time.Second)
		if _, err := fr.Force("forced", now); err != nil {
			t.Fatal(err)
		}
	}
	names := listBundles(t, dir)
	if len(names) != 2 {
		t.Fatalf("spool holds %d bundles, want 2: %v", len(names), names)
	}
	for _, n := range names {
		if n == "incident-000001-forced" || n == "incident-000002-forced" {
			t.Fatalf("oldest bundles should have been pruned, found %s", n)
		}
	}
}

// TestFlightRecorderRunStop: the detector goroutine starts, ticks, and
// stops cleanly.
func TestFlightRecorderRunStop(t *testing.T) {
	fr, err := NewFlightRecorder(NewObserver(NewRegistry(), 8), FlightRecorderConfig{
		Dir:      t.TempDir(),
		Interval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	fr.Run()
	time.Sleep(10 * time.Millisecond)
	fr.Stop()
}
