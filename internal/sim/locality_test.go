package sim

import (
	"testing"
	"testing/quick"
	"time"

	"batchmaker/internal/dataset"
)

func TestPinningKeepsMigrationsRare(t *testing.T) {
	// §4.3's locality design: subgraph→worker pinning should keep the vast
	// majority of a request's consecutive cells on one GPU, so only a
	// small fraction of tasks pay a cross-device copy.
	model := NewSeq2SeqModel(512, 256, 1)
	wl := &Seq2SeqWorkload{Pairs: dataset.NewPairSampler(77)}
	res, err := RunBatchMaker(defaultBMConfig(model, 4), wl, shortRun(8_000, 21))
	if err != nil {
		t.Fatal(err)
	}
	tasks, migr := res.Tasks, res.MigrationTasks
	if tasks == 0 {
		t.Fatal("no tasks recorded")
	}
	frac := float64(migr) / float64(tasks)
	if frac > 0.35 {
		t.Fatalf("migration tasks = %d of %d (%.0f%%); pinning should keep this low",
			migr, tasks, 100*frac)
	}
	// Requests spanned two phases (encoder + decoder subgraphs), so some
	// migration is expected; zero would suggest the counter is dead...
	// unless the workload drained worker-serially. Check the counters are
	// wired by asserting batched cells >= tasks.
	if res.BatchedCells < tasks {
		t.Fatalf("counters inconsistent: %d cells in %d tasks", res.BatchedCells, tasks)
	}
}

func TestBatchingActuallyHappensUnderLoad(t *testing.T) {
	// At saturation the mean batch size must approach the configured max.
	model := NewLSTMModel(512, 1)
	wl := &FixedWorkload{Shape: Shape{Kind: KindChain, Len: 24}}
	res, err := RunBatchMaker(defaultBMConfig(model, 1), wl, shortRun(35_000, 22))
	if err != nil {
		t.Fatal(err)
	}
	mean := float64(res.BatchedCells) / float64(res.Tasks)
	if mean < 256 {
		t.Fatalf("mean batch %.0f at saturation; want near 512", mean)
	}
}

// TestPropBatchMakerNeverLosesRequests fuzzes workload mixes and loads:
// every admitted request completes (RunBatchMaker errors otherwise) and
// latencies respect the physical floor of one cell time.
func TestPropBatchMakerNeverLosesRequests(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation fuzz")
	}
	f := func(seed uint64, kindSel, rateSel uint8) bool {
		rate := []float64{200, 1_000, 4_000}[int(rateSel)%3]
		run := RunConfig{
			RatePerSec: rate,
			Duration:   80 * time.Millisecond,
			Warmup:     40 * time.Millisecond,
			Seed:       seed,
		}
		var (
			model *Model
			wl    Workload
		)
		switch kindSel % 3 {
		case 0:
			model = NewLSTMModel(64, 1)
			wl = &LSTMWorkload{Lengths: dataset.NewWMTLengths(seed)}
		case 1:
			model = NewSeq2SeqModel(128, 64, 1)
			wl = &Seq2SeqWorkload{Pairs: dataset.NewPairSampler(seed)}
		default:
			model = NewTreeModel(64, 1)
			wl = &TreeWorkload{Trees: dataset.NewTreeSampler(seed, 1000)}
		}
		res, err := RunBatchMaker(defaultBMConfig(model, 1+int(seed%3)), wl, run)
		if err != nil {
			return false
		}
		if res.Latency.Count() > 0 && res.Latency.Min() <= 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
