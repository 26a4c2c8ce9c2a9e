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
	"incident.json", "metrics.prom", "trace.json", "goroutines.txt", "heap.pprof",
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
	t.Cleanup(fr.Stop)
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

	want := append(append([]string{}, bundleFiles...), "health.json")
	for _, f := range want {
		st, err := os.Stat(filepath.Join(path, f))
		if err != nil {
			t.Fatalf("bundle missing %s: %v", f, err)
		}
		if st.Size() == 0 {
			t.Fatalf("bundle artifact %s is empty", f)
		}
	}
	// The trace is the bundle's one encoding of the ring records: no other
	// file decodes them.
	if got := listBundles(t, path); len(got) != len(want) {
		t.Fatalf("bundle holds %v, want exactly %v", got, want)
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
	// The manifest says what fired and when; the ring gauges and latency
	// summaries are read from the same bundle's metrics.prom.
	var keys map[string]any
	if err := json.Unmarshal(data, &keys); err != nil || len(keys) != 4 {
		t.Fatalf("incident.json holds %v, want only reason, unix_ns, time and seq", keys)
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
	flows := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "s" || ev.Ph == "t" || ev.Ph == "f" {
			flows++
		}
	}
	if flows == 0 {
		t.Fatal("bundle trace carries no request flows")
	}

	data, err = os.ReadFile(filepath.Join(path, "metrics.prom"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "batchmaker_requests_total") {
		t.Fatal("metrics.prom is not a Prometheus exposition")
	}
}

// newTestRecorder builds a recorder over a fresh observer and stops its
// detector goroutine when the test ends. The goroutine's first tick is an
// interval away, so the tests' own Evaluate calls are the only passes.
func newTestRecorder(t *testing.T, cfg FlightRecorderConfig) (*FlightRecorder, *Observer) {
	t.Helper()
	o := testObserver(8)
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	fr, err := NewFlightRecorder(o, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fr.Stop)
	return fr, o
}

// TestFlightRecorderLatchesPerRule: a persistently-true condition fires
// once, stays latched across ticks, and re-arms only after clearing. Each
// tick advances virtual time by the debounce, so the latch — not the
// debounce — is what is being proven.
func TestFlightRecorderLatchesPerRule(t *testing.T) {
	fr, o := newTestRecorder(t, FlightRecorderConfig{SLA: 10 * time.Millisecond})
	now := time.Now().UnixNano()
	tick := func() []string {
		now += int64(debounce)
		return fr.Evaluate(now)
	}

	if fired := tick(); len(fired) != 0 {
		t.Fatalf("healthy metrics fired %v", fired)
	}
	o.Metrics.Queuing.Observe(50 * time.Millisecond) // P99 breach vs the 10ms SLA
	if fired := tick(); len(fired) != 1 || !strings.Contains(fired[0], IncidentSLABreach) {
		t.Fatalf("SLA breach should fire exactly one bundle, got %v", fired)
	}
	if fired := tick(); len(fired) != 0 {
		t.Fatalf("latched rule re-fired: %v", fired)
	}
	// The quantile window decays after its horizon; simulate clearing by
	// observing fast samples until P99 is back under the SLA, then breach
	// again — the rule must have re-armed.
	for i := 0; i < 2000; i++ {
		o.Metrics.Queuing.Observe(time.Microsecond)
	}
	if fired := tick(); len(fired) != 0 {
		t.Fatalf("cleared condition fired %v", fired)
	}
	for i := 0; i < 2000; i++ {
		o.Metrics.Queuing.Observe(time.Second)
	}
	if fired := tick(); len(fired) != 1 {
		t.Fatalf("re-armed rule should fire again, got %v", fired)
	}
}

// TestFlightRecorderShedBurstRule covers the delta-based rule: a burst of
// rejections fires once.
func TestFlightRecorderShedBurstRule(t *testing.T) {
	fr, o := newTestRecorder(t, FlightRecorderConfig{})
	now := time.Now().UnixNano()

	o.Metrics.Rejected.Add(rejectBurst - 1)
	if fired := fr.Evaluate(now); len(fired) != 0 {
		t.Fatalf("%d rejections fired %v", rejectBurst-1, fired)
	}
	o.Metrics.Rejected.Add(rejectBurst)
	now += int64(time.Second)
	fired := fr.Evaluate(now)
	if len(fired) != 1 || !strings.Contains(fired[0], IncidentShedBurst) {
		t.Fatalf("shed burst: %v", fired)
	}
}

// TestFlightRecorderJournalDegradedRule covers the Health-sourced rule: a
// journal flipping to lossy mode fires once and stays latched, and the
// bundle carries the health state that fired it.
func TestFlightRecorderJournalDegradedRule(t *testing.T) {
	degraded := false
	fr, _ := newTestRecorder(t, FlightRecorderConfig{
		Health: func() Health { return Health{JournalDegraded: degraded, JournalError: "disk full"} },
	})
	now := time.Now().UnixNano()
	if fired := fr.Evaluate(now); len(fired) != 0 {
		t.Fatalf("quiet start fired %v", fired)
	}

	degraded = true
	now += int64(time.Second)
	fired := fr.Evaluate(now)
	if len(fired) != 1 || !strings.Contains(fired[0], IncidentJournalDegrade) {
		t.Fatalf("journal degrade: %v", fired)
	}
	var h Health
	data, err := os.ReadFile(filepath.Join(fired[0], "health.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &h); err != nil || !h.JournalDegraded || h.JournalError != "disk full" {
		t.Fatalf("health.json = %s (err %v), want the degraded journal", data, err)
	}
	if fired := fr.Evaluate(now + int64(debounce)); len(fired) != 0 {
		t.Fatalf("latched rule re-fired: %v", fired)
	}
}

// TestFlightRecorderSpoolBound: the spool never holds more than maxBundles
// bundles; the oldest go first.
func TestFlightRecorderSpoolBound(t *testing.T) {
	dir := t.TempDir()
	fr, _ := newTestRecorder(t, FlightRecorderConfig{Dir: dir})
	now := time.Now().UnixNano()
	for i := 0; i < maxBundles+2; i++ {
		now += int64(debounce)
		if _, err := fr.Force("forced", now); err != nil {
			t.Fatal(err)
		}
	}
	names := listBundles(t, dir)
	if len(names) != maxBundles {
		t.Fatalf("spool holds %d bundles, want %d: %v", len(names), maxBundles, names)
	}
	for _, n := range names {
		if n == "incident-000001-forced" || n == "incident-000002-forced" {
			t.Fatalf("oldest bundles should have been pruned, found %s", n)
		}
	}
}

// TestFlightRecorderRunStop: the constructor starts the detector goroutine,
// and Stop on a fresh recorder — before its first tick — returns promptly,
// and again when repeated.
func TestFlightRecorderRunStop(t *testing.T) {
	fr, err := NewFlightRecorder(testObserver(8), FlightRecorderConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	stopped := make(chan struct{})
	go func() {
		fr.Stop()
		fr.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop on a fresh recorder did not return")
	}
}
