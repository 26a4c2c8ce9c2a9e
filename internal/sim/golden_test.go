package sim

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"batchmaker/internal/dataset"
	"batchmaker/internal/device"
)

var updateGolden = flag.Bool("update", false, "rewrite the simulator golden files")

// goldenTimeline renders everything the determinism contract covers: the
// Figure 5 illustrative timelines (pure functions) and a full seeded
// BatchMaker event-driven run (engine heap order, Poisson arrivals,
// scheduler decisions, GPU stream timing). Any change to scheduler policy,
// cost curves, or event ordering shows up as a golden diff — intentional
// changes re-bless with `go test ./internal/sim -run TestGolden -update`.
func goldenTimeline() string {
	var b strings.Builder

	reqs := Figure5Requests()
	b.WriteString(FormatTimeline("graph batching (batch=2)", GraphBatchingTimeline(reqs, 2)))
	b.WriteString("\n")
	b.WriteString(FormatTimeline("cellular batching (batch=2)", CellularBatchingTimeline(reqs, 2)))
	b.WriteString("\n")

	res, err := RunBatchMaker(
		BatchMakerConfig{
			Model:            NewLSTMModel(8, 1),
			NumGPUs:          2,
			Overheads:        device.DefaultOverheads(),
			MaxTasksToSubmit: 2,
		},
		&LSTMWorkload{Lengths: dataset.NewUniformLengths(7, 4, 24)},
		RunConfig{RatePerSec: 2000, Duration: 50 * time.Millisecond, Warmup: 5 * time.Millisecond, Seed: 7},
	)
	if err != nil {
		return fmt.Sprintf("ERROR: %v\n", err)
	}
	fmt.Fprintf(&b, "batchmaker seeded run (lstm, 2 gpus, rate 2000/s, seed 7)\n")
	fmt.Fprintf(&b, "completed   %d\n", res.Completed)
	fmt.Fprintf(&b, "latency     mean=%v p50=%v p99=%v\n", res.Latency.Mean(), res.Latency.P50(), res.Latency.P99())
	fmt.Fprintf(&b, "queuing     mean=%v p50=%v\n", res.Queuing.Mean(), res.Queuing.P50())
	// The run's nonzero counters, sorted by name.
	for _, c := range []struct {
		name string
		v    int
	}{
		{"batched_cells", res.BatchedCells},
		{"deadline_misses", res.DeadlineMisses},
		{"migrated_requests", res.MigratedRequests},
		{"migration_tasks", res.MigrationTasks},
		{"pin_moves", res.PinMoves},
		{"policy_sheds", res.PolicySheds},
		{"remote_tasks", res.RemoteTasks},
		{"tasks", res.Tasks},
	} {
		if c.v != 0 {
			fmt.Fprintf(&b, "extra       %s=%g\n", c.name, float64(c.v))
		}
	}
	return b.String()
}

// TestGoldenTimeline pins the simulator's determinism: a fixed seed must
// reproduce the checked-in timeline byte for byte, run after run, machine
// after machine (virtual time owes nothing to the wall clock).
func TestGoldenTimeline(t *testing.T) {
	got := goldenTimeline()
	if again := goldenTimeline(); again != got {
		t.Fatalf("simulator nondeterministic across runs in one process:\n--- first\n%s\n--- second\n%s", got, again)
	}

	path := filepath.Join("testdata", "timeline.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("timeline deviates from golden %s (re-bless with -update if intentional):\n%s",
			path, diffLines(string(want), got))
	}
}

// diffLines reports the first divergent line, with context.
func diffLines(want, got string) string {
	ws, gs := strings.Split(want, "\n"), strings.Split(got, "\n")
	n := len(ws)
	if len(gs) < n {
		n = len(gs)
	}
	for i := 0; i < n; i++ {
		if ws[i] != gs[i] {
			return fmt.Sprintf("line %d:\n  want: %q\n  got:  %q", i+1, ws[i], gs[i])
		}
	}
	return fmt.Sprintf("line counts differ: want %d, got %d", len(ws), len(gs))
}
