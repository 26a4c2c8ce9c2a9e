package rnn

import (
	"math"
	"testing"

	"batchmaker/internal/tensor"
)

// Accuracy-gate thresholds (DESIGN.md §14). Measured drift at Hidden=64
// over 32 recurrent steps is ~0.03–0.04 max abs error and ≥ 0.9996
// cosine; the gates leave ~2× headroom so CI fails on real regressions,
// not on cross-arch float noise.
const (
	quantGateMaxAbsErr = 0.08
	quantGateMinCosine = 0.998
	quantGateSteps     = 32
	quantGateBatch     = 4
	quantGateHidden    = 64
)

// quantDrift runs a float32 oracle cell and its int8 twin over the same
// golden input sequence and returns the worst element-wise error across
// every step's outputs plus the worst per-row cosine similarity of the
// end-of-sequence hidden state.
func quantDrift(t *testing.T, seed uint64, gru bool) (maxAbsErr float64, minCosine float64) {
	t.Helper()
	in, hidden, b := quantGateHidden, quantGateHidden, quantGateBatch
	oracleRNG, quantRNG := tensor.NewRNG(seed), tensor.NewRNG(seed)
	var oracle, quant Cell
	if gru {
		oracle, quant = NewGRUCell("g", in, hidden, oracleRNG), NewGRUCell("g", in, hidden, quantRNG)
	} else {
		oracle, quant = NewLSTMCell("l", in, hidden, oracleRNG), NewLSTMCell("l", in, hidden, quantRNG)
	}
	if err := quant.(PrecisionConfigurable).SetPrecision(PrecisionInt8); err != nil {
		t.Fatalf("SetPrecision: %v", err)
	}
	inRNG := tensor.NewRNG(seed + 1)
	fIn := map[string]*tensor.Tensor{"h": tensor.New(b, hidden)}
	qIn := map[string]*tensor.Tensor{"h": tensor.New(b, hidden)}
	if !gru {
		fIn["c"], qIn["c"] = tensor.New(b, hidden), tensor.New(b, hidden)
	}
	minCosine = 1
	var fH, qH *tensor.Tensor
	for s := 0; s < quantGateSteps; s++ {
		x := tensor.RandNormal(inRNG, 1, b, in)
		fIn["x"], qIn["x"] = x, x
		fOut, err := oracle.Step(fIn)
		if err != nil {
			t.Fatalf("oracle step: %v", err)
		}
		qOut, err := quant.Step(qIn)
		if err != nil {
			t.Fatalf("quant step: %v", err)
		}
		for name, ft := range fOut {
			qt := qOut[name]
			for p, v := range ft.Data() {
				if d := math.Abs(float64(v - qt.Data()[p])); d > maxAbsErr {
					maxAbsErr = d
				}
			}
		}
		fH, qH = fOut["h"], qOut["h"]
		for name := range fOut {
			fIn[name], qIn[name] = fOut[name], qOut[name]
		}
	}
	for r := 0; r < b; r++ {
		var dot, nf, nq float64
		for j := 0; j < hidden; j++ {
			fv, qv := float64(fH.At(r, j)), float64(qH.At(r, j))
			dot += fv * qv
			nf += fv * fv
			nq += qv * qv
		}
		if cos := dot / math.Sqrt(nf*nq); cos < minCosine {
			minCosine = cos
		}
	}
	return maxAbsErr, minCosine
}

// TestInt8LSTMAccuracyGate is the CI accuracy gate for the quantized
// LSTM: golden sequences vs the float32 oracle.
func TestInt8LSTMAccuracyGate(t *testing.T) {
	for _, seed := range []uint64{42, 1009} {
		errAbs, cos := quantDrift(t, seed, false)
		t.Logf("lstm seed %d: maxAbsErr=%.5f minCosine=%.6f", seed, errAbs, cos)
		if errAbs > quantGateMaxAbsErr {
			t.Errorf("seed %d: int8 LSTM max abs error %.5f exceeds gate %.3f", seed, errAbs, quantGateMaxAbsErr)
		}
		if cos < quantGateMinCosine {
			t.Errorf("seed %d: int8 LSTM end-of-sequence cosine %.6f below gate %.4f", seed, cos, quantGateMinCosine)
		}
	}
}

// TestInt8GRUAccuracyGate is the CI accuracy gate for the quantized GRU.
func TestInt8GRUAccuracyGate(t *testing.T) {
	for _, seed := range []uint64{42, 1009} {
		errAbs, cos := quantDrift(t, seed, true)
		t.Logf("gru seed %d: maxAbsErr=%.5f minCosine=%.6f", seed, errAbs, cos)
		if errAbs > quantGateMaxAbsErr {
			t.Errorf("seed %d: int8 GRU max abs error %.5f exceeds gate %.3f", seed, errAbs, quantGateMaxAbsErr)
		}
		if cos < quantGateMinCosine {
			t.Errorf("seed %d: int8 GRU end-of-sequence cosine %.6f below gate %.4f", seed, cos, quantGateMinCosine)
		}
	}
}

// TestPrecisionTypeKey: the tier is part of the cell's identity — a
// quantized cell must never batch with its float twin — and switching
// back restores the original key exactly.
func TestPrecisionTypeKey(t *testing.T) {
	cells := []Cell{
		NewLSTMCell("l", 8, 16, tensor.NewRNG(1)),
		NewGRUCell("g", 8, 16, tensor.NewRNG(2)),
		NewEncoderCell("e", 50, 8, 16, tensor.NewRNG(3)),
		NewDecoderCell("d", 50, 8, 16, tensor.NewRNG(4)),
	}
	for _, c := range cells {
		pc := c.(PrecisionConfigurable)
		if pc.Precision() != PrecisionF32 {
			t.Fatalf("%s: fresh cell not f32", c.Name())
		}
		base := c.TypeKey()
		if err := pc.SetPrecision(PrecisionInt8); err != nil {
			t.Fatalf("%s: SetPrecision(int8): %v", c.Name(), err)
		}
		if got := c.TypeKey(); got != base+"+int8" {
			t.Fatalf("%s: int8 TypeKey %q, want %q", c.Name(), got, base+"+int8")
		}
		if pc.Precision() != PrecisionInt8 {
			t.Fatalf("%s: Precision() not int8 after switch", c.Name())
		}
		if err := pc.SetPrecision(PrecisionF32); err != nil {
			t.Fatalf("%s: SetPrecision(f32): %v", c.Name(), err)
		}
		if got := c.TypeKey(); got != base {
			t.Fatalf("%s: restored TypeKey %q, want %q", c.Name(), got, base)
		}
	}
}

func TestParsePrecision(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Precision
		ok   bool
	}{
		{"f32", PrecisionF32, true}, {"", PrecisionF32, true}, {"float32", PrecisionF32, true},
		{"int8", PrecisionInt8, true}, {"i8", PrecisionInt8, true},
		{"fp16", PrecisionF32, false}, {"INT8", PrecisionF32, false}, {"garbage", PrecisionF32, false},
	} {
		got, err := ParsePrecision(tc.in)
		if tc.ok != (err == nil) || got != tc.want {
			t.Fatalf("ParsePrecision(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
}

// TestInt8CalibrationDeterministic: same weights → same scales and the
// same quantized outputs, regardless of when calibration runs.
func TestInt8CalibrationDeterministic(t *testing.T) {
	a := NewLSTMCell("l", 16, 24, tensor.NewRNG(9))
	b := NewLSTMCell("l", 16, 24, tensor.NewRNG(9))
	if err := a.SetPrecision(PrecisionInt8); err != nil {
		t.Fatal(err)
	}
	// Run b a few float steps first; calibration must not depend on runtime state.
	in := map[string]*tensor.Tensor{
		"x": tensor.RandNormal(tensor.NewRNG(3), 1, 2, 16),
		"h": tensor.New(2, 24), "c": tensor.New(2, 24),
	}
	if _, err := b.Step(in); err != nil {
		t.Fatal(err)
	}
	if err := b.SetPrecision(PrecisionInt8); err != nil {
		t.Fatal(err)
	}
	if a.q.inScale != b.q.inScale {
		t.Fatalf("calibrated scales differ: %v vs %v", a.q.inScale, b.q.inScale)
	}
	outA, err := a.Step(in)
	if err != nil {
		t.Fatal(err)
	}
	outB, err := b.Step(in)
	if err != nil {
		t.Fatal(err)
	}
	for name := range outA {
		if !outA[name].AllClose(outB[name], 0) {
			t.Fatalf("quantized outputs for %q differ between twins", name)
		}
	}
}

// TestInt8LSTMStepIntoZeroAlloc: the int8 tier must hold the PR-4
// zero-allocation contract on the arena hot path.
func TestInt8LSTMStepIntoZeroAlloc(t *testing.T) {
	c := NewLSTMCell("l", 64, 64, tensor.NewRNG(5))
	if err := c.SetPrecision(PrecisionInt8); err != nil {
		t.Fatal(err)
	}
	testStepIntoZeroAlloc(t, c, map[string]*tensor.Tensor{
		"x": tensor.RandNormal(tensor.NewRNG(6), 1, 8, 64),
		"h": tensor.New(8, 64), "c": tensor.New(8, 64),
	})
}

// TestInt8GRUStepIntoZeroAlloc: same contract for the quantized GRU.
func TestInt8GRUStepIntoZeroAlloc(t *testing.T) {
	c := NewGRUCell("g", 64, 64, tensor.NewRNG(5))
	if err := c.SetPrecision(PrecisionInt8); err != nil {
		t.Fatal(err)
	}
	testStepIntoZeroAlloc(t, c, map[string]*tensor.Tensor{
		"x": tensor.RandNormal(tensor.NewRNG(6), 1, 8, 64),
		"h": tensor.New(8, 64),
	})
}

// testStepIntoZeroAlloc drives StepInto through a warm arena and asserts
// zero allocations per cycle.
func testStepIntoZeroAlloc(t *testing.T, c Cell, inputs map[string]*tensor.Tensor) {
	t.Helper()
	fast, ok := c.(IntoStepper)
	if !ok {
		t.Fatalf("%s does not implement IntoStepper", c.Name())
	}
	b := 8
	out := map[string]*tensor.Tensor{}
	for name, w := range c.(OutputSized).OutputWidths() {
		out[name] = tensor.New(b, w)
	}
	arena := tensor.NewArena(0)
	cycle := func() {
		arena.Reset()
		if err := fast.StepInto(inputs, out, arena); err != nil {
			t.Fatalf("StepInto: %v", err)
		}
	}
	cycle()
	cycle() // warm: slabs at high-water, headers recycled
	if n := testing.AllocsPerRun(50, cycle); n != 0 {
		t.Fatalf("int8 StepInto allocates %v times per run, want 0", n)
	}
}

// BenchmarkLSTMStepF32 / BenchmarkLSTMStepInt8 are the paired per-step
// cell benchmarks at the acceptance shape (Hidden=64, batch 8).
func benchmarkStep(b *testing.B, c Cell, inputs map[string]*tensor.Tensor) {
	fast := c.(IntoStepper)
	rows := inputs[c.InputNames()[0]].Shape()[0]
	out := map[string]*tensor.Tensor{}
	for name, w := range c.(OutputSized).OutputWidths() {
		out[name] = tensor.New(rows, w)
	}
	arena := tensor.NewArena(0)
	for i := 0; i < 3; i++ {
		arena.Reset()
		if err := fast.StepInto(inputs, out, arena); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arena.Reset()
		if err := fast.StepInto(inputs, out, arena); err != nil {
			b.Fatal(err)
		}
	}
}

func lstmBenchInputs() map[string]*tensor.Tensor {
	return map[string]*tensor.Tensor{
		"x": tensor.RandNormal(tensor.NewRNG(7), 1, 8, 64),
		"h": tensor.RandNormal(tensor.NewRNG(8), 0.5, 8, 64),
		"c": tensor.RandNormal(tensor.NewRNG(9), 0.5, 8, 64),
	}
}

func BenchmarkLSTMStepF32(b *testing.B) {
	benchmarkStep(b, NewLSTMCell("l", 64, 64, tensor.NewRNG(1)), lstmBenchInputs())
}

func BenchmarkLSTMStepInt8(b *testing.B) {
	c := NewLSTMCell("l", 64, 64, tensor.NewRNG(1))
	if err := c.SetPrecision(PrecisionInt8); err != nil {
		b.Fatal(err)
	}
	benchmarkStep(b, c, lstmBenchInputs())
}

func gruBenchInputs() map[string]*tensor.Tensor {
	return map[string]*tensor.Tensor{
		"x": tensor.RandNormal(tensor.NewRNG(7), 1, 8, 64),
		"h": tensor.RandNormal(tensor.NewRNG(8), 0.5, 8, 64),
	}
}

func BenchmarkGRUStepF32(b *testing.B) {
	benchmarkStep(b, NewGRUCell("g", 64, 64, tensor.NewRNG(1)), gruBenchInputs())
}

func BenchmarkGRUStepInt8(b *testing.B) {
	c := NewGRUCell("g", 64, 64, tensor.NewRNG(1))
	if err := c.SetPrecision(PrecisionInt8); err != nil {
		b.Fatal(err)
	}
	benchmarkStep(b, c, gruBenchInputs())
}
