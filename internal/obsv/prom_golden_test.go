package obsv

import (
	"os"
	"strings"
	"testing"
	"time"
)

// goldenObserver builds a fully-populated observer with deterministic
// values across every family the serving stack registers.
func goldenObserver() *Observer {
	m := NewServingMetrics(NewRegistry(), []string{"lstm", "decoder"}, []int{16, 6}, 1)
	o := NewObserver(m, 8)

	m.Admitted.Add(10)
	m.Completed.Add(7)
	m.Failed.Add(1)
	m.Rejected.Add(2)
	m.Expired.Inc()
	m.Cancelled.Inc()
	m.Inflight.Set(4)
	m.QueuedCells.Set(32)

	const lstm, dec = 0, 1 // type ids
	m.Types[lstm].Ready.Set(12)
	m.Types[lstm].Panics.Inc()
	m.Exec[0][lstm].Tasks.Add(5)
	m.Exec[0][lstm].Cells.Add(40)
	m.Types[dec].Ready.Set(3)
	m.Exec[0][dec].Tasks.Add(2)
	m.Exec[0][dec].Cells.Add(6)
	// padding waste = 1 - (40+6)/(5*16 + 2*6) = 1 - 46/92 = 0.5

	w0 := m.Workers[0]
	w0.Depth.Set(2)
	w0.ArenaHighWater.Set(4096)
	w0.Busy.Add(int64(1500 * time.Millisecond))

	for _, occ := range []int64{1, 2, 8, 8, 8, 33, 300} {
		m.BatchOccupancy.Observe(occ)
	}

	for i := 1; i <= 4; i++ {
		m.Queuing.Observe(time.Duration(i) * time.Millisecond)
		m.Computation.Observe(time.Duration(10*i) * time.Millisecond)
		m.Dispatch.Observe(time.Duration(i) * time.Microsecond)
	}

	ring := o.NewRing("rp")
	for i := 1; i <= 10; i++ { // capacity 8 → 2 dropped
		ring.Write(Record{Kind: KindAdmit, Req: int64(i), T0: int64(i)})
	}

	// Durable-journal families, registered in the same registry as the
	// serving stack (one scrape covers both).
	jm := NewJournalMetrics(o.Metrics.Registry())
	jm.AdmitRecords.Add(10)
	jm.CancelRecords.Inc()
	jm.TerminalRecords.Add(9)
	jm.Errors.Inc()
	jm.Fsyncs.Add(4)
	jm.Bytes.Add(2048)
	for i := 1; i <= 4; i++ {
		jm.Commit.Observe(time.Duration(i) * 500 * time.Microsecond)
	}
	for _, n := range []int64{1, 3, 8, 64, 200} {
		jm.BatchRecords.Observe(n)
	}
	jm.Replayed.Add(20)
	jm.Recovered.Add(5)
	return o
}

// TestPromExpositionGolden pins the full Prometheus text exposition —
// metric names, label names, HELP/TYPE lines, ordering, and value
// formatting. A diff here means dashboards break: change goldenProm
// deliberately or not at all.
func TestPromExpositionGolden(t *testing.T) {
	o := goldenObserver()
	var b strings.Builder
	if err := o.Metrics.Registry().WritePromTo(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	if got != goldenProm {
		t.Fatalf("exposition drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", got, goldenProm)
	}
}

// TestRegenPromGolden rewrites golden_prom_test.go's expected text when
// run with GOLDEN_OUT=<path>; used to regenerate the golden after a
// deliberate format change.
func TestRegenPromGolden(t *testing.T) {
	path := os.Getenv("GOLDEN_OUT")
	if path == "" {
		t.Skip("set GOLDEN_OUT=<path> to dump the current exposition")
	}
	var b strings.Builder
	if err := goldenObserver().Metrics.Registry().WritePromTo(&b); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestPromExpositionParses sanity-checks structural invariants
// independently of the golden: every series line's metric name must be
// declared by a preceding TYPE line, and histogram bucket counts must be
// cumulative.
func TestPromExpositionParses(t *testing.T) {
	o := goldenObserver()
	var b strings.Builder
	if err := o.Metrics.Registry().WritePromTo(&b); err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(b.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			declared[strings.Fields(line)[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if cut, ok := strings.CutSuffix(name, suf); ok && declared[cut] {
				base = cut
				break
			}
		}
		if !declared[base] {
			t.Fatalf("series %q has no TYPE declaration", line)
		}
	}
}
