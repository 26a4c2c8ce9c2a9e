package sim

import (
	"testing"
	"time"
)

// TestMultiGPUScalingCurve reproduces the paper's multi-GPU claim in virtual
// time: at a load that saturates one device, adding devices raises
// saturation throughput — 2 GPUs ≥ 1.5× 1 GPU, and the curve never bends
// downward through 4. Every point sees the same request sequence.
func TestMultiGPUScalingCurve(t *testing.T) {
	run := RunConfig{
		RatePerSec: 150_000,
		Duration:   120 * time.Millisecond,
		Warmup:     60 * time.Millisecond,
		Seed:       11,
	}
	var tput []float64
	for _, gpus := range []int{1, 2, 4} {
		wl := &FixedWorkload{Shape: Shape{Kind: KindChain, Len: 16}}
		res, err := RunBatchMaker(defaultBMConfig(NewLSTMModel(256, 1), gpus), wl, run)
		if err != nil {
			t.Fatal(err)
		}
		if res.Throughput() <= 0 {
			t.Fatalf("%d GPUs measured zero throughput", gpus)
		}
		t.Logf("%d GPUs: %.0f req/s (tasks=%d migration_tasks=%d)",
			gpus, res.Throughput(), res.Tasks, res.MigrationTasks)
		tput = append(tput, res.Throughput())
	}
	t1, t2, t4 := tput[0], tput[1], tput[2]
	// The single-GPU point must actually be saturated, otherwise the curve
	// measures the arrival process instead of capacity.
	if t1 >= 0.9*run.RatePerSec {
		t.Fatalf("1 GPU completed %.0f/s of %.0f/s offered; load does not saturate", t1, run.RatePerSec)
	}
	if t2 < 1.5*t1 {
		t.Fatalf("2-GPU speedup %.2fx (%.0f vs %.0f req/s), want >= 1.5x", t2/t1, t2, t1)
	}
	if t4 < t2 {
		t.Fatalf("scaling curve bends down: 4 GPUs %.0f < 2 GPUs %.0f req/s", t4, t2)
	}
}
