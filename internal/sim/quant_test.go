package sim

import (
	"math"
	"testing"

	"batchmaker/internal/device"
)

// TestQuantTierPricing prices the int8 execution tier in the simulator's
// cost model: deriving "lstm+int8" from the measured StepInto speedup must
// cut both the kernel latency and the kernel energy the scheduler would
// see, without changing the throughput-optimal batch size (the curve shape
// — knee and fixed/per-row ratio — is preserved, only the scale changes).
func TestQuantTierPricing(t *testing.T) {
	const (
		speedup    = 2.13 // LSTM f32 ÷ int8 step ratio against the scalar f32 kernel (0.86 since PR 17)
		tierKey    = TypeLSTM + "+int8"
		powerRatio = device.Int8PowerRatio
	)

	m := NewLSTMModel(64, 1)
	if err := m.Costs().DeriveQuantTier(TypeLSTM, tierKey, speedup, powerRatio); err != nil {
		t.Fatalf("DeriveQuantTier: %v", err)
	}

	for _, b := range []int{1, 8, 64, 512} {
		f32 := m.KernelTime(TypeLSTM, b)
		i8 := m.KernelTime(tierKey, b)
		ratio := float64(f32) / float64(i8)
		if math.Abs(ratio-speedup) > 0.02 {
			t.Fatalf("b=%d: latency speedup %.3f, want ~%.2f", b, ratio, speedup)
		}

		eRatio := m.Costs().KernelEnergy(tierKey, b) / m.Costs().KernelEnergy(TypeLSTM, b)
		wantE := powerRatio / speedup
		if math.Abs(eRatio-wantE) > 0.01 {
			t.Fatalf("b=%d: energy ratio %.3f, want ~%.3f", b, eRatio, wantE)
		}
	}

	// The tier rescales the curve uniformly, so the offline best-batch
	// choice (§4.2's "desired maximum batch size") is unchanged.
	base, _ := m.Costs().Curve(TypeLSTM)
	tier, ok := m.Costs().Curve(tierKey)
	if !ok {
		t.Fatal("tier curve not registered")
	}
	if got, want := tier.BestBatch(512), base.BestBatch(512); got != want {
		t.Fatalf("BestBatch changed under uniform rescale: %d vs %d", got, want)
	}

	// Paper anchor sanity: the f32 curve still passes through 185µs@64,
	// and the derived tier prices that same batch at 185µs/speedup.
	wantNS := float64(device.LSTMStep64.Nanoseconds()) / speedup
	gotNS := float64(m.KernelTime(tierKey, 64).Nanoseconds())
	if math.Abs(gotNS-wantNS)/wantNS > 0.01 {
		t.Fatalf("tier time at b=64: %.0fns, want ~%.0fns", gotNS, wantNS)
	}
}
