package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"batchmaker/internal/sim"
)

// tinyOpts keeps experiment smoke tests fast: the point is wiring, not
// statistics.
func tinyOpts() Options {
	return Options{
		Quick:    true,
		Duration: 40 * time.Millisecond,
		Warmup:   20 * time.Millisecond,
		Seed:     7,
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := Run("fig99", tinyOpts()); err == nil {
		t.Fatal("want unknown-experiment error")
	}
}

func TestExperimentsListStableAndComplete(t *testing.T) {
	names := Experiments()
	want := []string{
		"ablation-cpu", "ablation-mts", "ablation-overhead", "ablation-priority",
		"ablation-timeout",
		"fig10", "fig11", "fig13a", "fig13b", "fig14", "fig15",
		"fig3", "fig5", "fig7a", "fig7b", "fig8", "fig9", "summary",
	}
	if len(names) != len(want) {
		t.Fatalf("experiments = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("experiments[%d] = %q, want %q", i, names[i], want[i])
		}
	}
}

func TestFig3ReportContents(t *testing.T) {
	var buf bytes.Buffer
	o := tinyOpts()
	o.Out = &buf
	rep, err := Run("fig3", o)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, needle := range []string{"GPU", "CPU", "b=512", "best GPU batch (throughput-optimal): 512"} {
		if !strings.Contains(out, needle) {
			t.Fatalf("fig3 output missing %q:\n%s", needle, out)
		}
	}
	if rep.Name != "fig3" {
		t.Fatalf("name = %q", rep.Name)
	}
}

func TestFig5ReportShowsBothPolicies(t *testing.T) {
	var buf bytes.Buffer
	o := tinyOpts()
	o.Out = &buf
	if _, err := Run("fig5", o); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "graph batching") || !strings.Contains(out, "cellular batching") {
		t.Fatalf("fig5 output incomplete:\n%s", out)
	}
}

func TestFig10MatchesAnchors(t *testing.T) {
	rep, err := Run("fig10", tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Lines) == 0 || !strings.Contains(rep.Lines[0], "mean=") {
		t.Fatalf("fig10 lines = %v", rep.Lines)
	}
}

func TestFig7aOrderingHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	rep, err := Run("fig7a", tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	// The headline shape: BatchMaker's peak throughput exceeds both
	// baselines' and its latency at the low-load point is lower.
	bm := rep.PeakThroughput("BatchMaker-lstm")
	mx := rep.PeakThroughput("MXNet")
	tf := rep.PeakThroughput("TensorFlow")
	if bm <= mx || bm <= tf {
		t.Fatalf("peaks: BM=%v MXNet=%v TF=%v — BatchMaker must win", bm, mx, tf)
	}
	bmLat, ok1 := rep.LatencyAt("BatchMaker-lstm", 2_000)
	mxLat, ok2 := rep.LatencyAt("MXNet", 2_000)
	if !ok1 || !ok2 || bmLat >= mxLat {
		t.Fatalf("low-load p90: BM=%v MXNet=%v", bmLat, mxLat)
	}
}

func TestFig14OrderingHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	rep, err := Run("fig14", tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	bm := rep.PeakThroughput("BatchMaker-treelstm")
	dy := rep.PeakThroughput("DyNet")
	fold := rep.PeakThroughput("TF Fold")
	if !(bm > dy && dy > fold) {
		t.Fatalf("tree peaks: BM=%v DyNet=%v Fold=%v — want BM > DyNet > Fold", bm, dy, fold)
	}
}

func TestFig15IdealBeatsBatchMakerOnThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	rep, err := Run("fig15", tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	ideal := rep.PeakThroughput("Ideal")
	bm := rep.PeakThroughput("BatchMaker-treelstm")
	if bm >= ideal {
		t.Fatalf("fixed-tree peaks: BM=%v must trail Ideal=%v (paper: ~30%% less)", bm, ideal)
	}
	// But BatchMaker's latency beats Ideal's (paper: Ideal executes 31
	// sequential cells per batch).
	bmLat, _ := rep.LatencyAt("BatchMaker-treelstm", 500)
	idealLat, _ := rep.LatencyAt("Ideal", 500)
	if bmLat >= idealLat {
		t.Fatalf("low-load latency: BM=%v must beat Ideal=%v", bmLat, idealLat)
	}
}

func TestAblationOverheadMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	rep, err := Run("ablation-overhead", tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	// More overhead → less peak throughput, strictly ordered.
	var last float64 = 1e18
	for _, p := range rep.Points {
		if p.Throughput > last*1.02 {
			t.Fatalf("throughput not monotone in overhead: %+v", rep.Points)
		}
		last = p.Throughput
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Out == nil || o.Duration == 0 || o.Warmup == 0 || o.Seed == 0 {
		t.Fatalf("defaults not applied: %+v", o)
	}
	q := Options{Quick: true}.withDefaults()
	if q.Duration >= o.Duration {
		t.Fatal("quick duration must be shorter")
	}
	if got := o.rates(0, 700); len(got) < 8 {
		t.Fatalf("full sweep too short: %v", got)
	}
	if got := q.rates(0, 700); len(got) != 3 {
		t.Fatalf("quick sweep = %v", got)
	}
}

func TestWriteCSV(t *testing.T) {
	rep := &Report{Name: "x", Title: "t"}
	rep.Points = []Point{
		{System: "a", OfferedQPS: 100, Throughput: 90.5, P50: 5 * time.Millisecond},
	}
	var buf bytes.Buffer
	if err := rep.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("csv lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "system,offered_qps") {
		t.Fatalf("bad header: %s", lines[0])
	}
	if !strings.HasPrefix(lines[1], "a,100,90.5,5.000") {
		t.Fatalf("bad row: %s", lines[1])
	}
}

func TestReportHelpers(t *testing.T) {
	rep := &Report{Name: "x", Title: "t"}
	rep.Points = []Point{
		{System: "a", OfferedQPS: 100, Throughput: 90, P90: 5 * time.Millisecond},
		{System: "a", OfferedQPS: 200, Throughput: 150, P90: 9 * time.Millisecond},
		{System: "b", OfferedQPS: 100, Throughput: 80, P90: 7 * time.Millisecond},
	}
	if got := rep.PeakThroughput("a"); got != 150 {
		t.Fatalf("peak = %v", got)
	}
	if got := rep.PeakThroughput("zzz"); got != 0 {
		t.Fatalf("missing-system peak = %v", got)
	}
	if lat, ok := rep.LatencyAt("a", 120); !ok || lat != 5*time.Millisecond {
		t.Fatalf("LatencyAt = %v %v", lat, ok)
	}
	if _, ok := rep.LatencyAt("zzz", 120); ok {
		t.Fatal("missing system must report !ok")
	}
	var buf bytes.Buffer
	rep.printf("hello %d", 42)
	if _, err := rep.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "hello 42") {
		t.Fatalf("WriteTo output: %s", buf.String())
	}
}

func TestRunResultThroughputAndRow(t *testing.T) {
	r := sim.RunResult{System: "batchmaker", OfferedQPS: 1000, Duration: 2 * time.Second, Completed: 1500}
	if got := r.Throughput(); got != 750 {
		t.Fatalf("throughput = %v", got)
	}
	r.Latency.Add(10 * time.Millisecond)
	if got := row(&r); !strings.Contains(got, "p50=   10.00ms") {
		t.Fatalf("row %q", got)
	}
	zero := sim.RunResult{}
	if zero.Throughput() != 0 {
		t.Fatal("zero-duration throughput must be 0")
	}
}

func TestMsHelper(t *testing.T) {
	if ms(1500*time.Microsecond) != 1.5 {
		t.Fatalf("ms = %v", ms(1500*time.Microsecond))
	}
}
