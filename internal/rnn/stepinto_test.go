package rnn

import (
	"fmt"
	"testing"

	"batchmaker/internal/tensor"
)

type stepIntoCase struct {
	cell   Cell
	inputs map[string]*tensor.Tensor
}

// stepIntoCases builds one instance of every built-in cell with random
// inputs, so the Cell contract can be asserted across the whole zoo.
func stepIntoCases(rng *tensor.RNG) []stepIntoCase {
	var cases []stepIntoCase
	for _, cell := range zooCells(rng, testHidden) {
		cases = append(cases, stepIntoCase{cell, zooInputs(rng, cell, 3, testHidden)})
	}
	return cases
}

func mergeInputs(ms ...map[string]*tensor.Tensor) map[string]*tensor.Tensor {
	out := map[string]*tensor.Tensor{}
	for _, m := range ms {
		for k, v := range m {
			out[k] = v
		}
	}
	return out
}

// TestStepIntoMatchesStep asserts the allocating rnn.Step helper is
// bit-identical to StepInto with a fresh arena for every built-in cell: same
// code, different memory.
func TestStepIntoMatchesStep(t *testing.T) {
	rng := tensor.NewRNG(11)
	for _, tc := range stepIntoCases(rng) {
		want, err := Step(tc.cell, tc.inputs)
		if err != nil {
			t.Fatalf("%s: Step: %v", tc.cell.Name(), err)
		}
		if len(want) != len(tc.cell.OutputNames()) {
			t.Fatalf("%s: Step returned %d outputs, want %d", tc.cell.Name(), len(want), len(tc.cell.OutputNames()))
		}
		widths := tc.cell.OutputWidths()
		b := want[tc.cell.OutputNames()[0]].Dim(0)
		out := make(map[string]*tensor.Tensor, len(widths))
		for _, name := range tc.cell.OutputNames() {
			out[name] = tensor.New(b, widths[name])
		}
		if err := tc.cell.StepInto(tc.inputs, out, tensor.NewArena(0)); err != nil {
			t.Fatalf("%s: StepInto: %v", tc.cell.Name(), err)
		}
		for _, name := range tc.cell.OutputNames() {
			if !out[name].Equal(want[name]) {
				t.Fatalf("%s: output %q differs between Step and StepInto", tc.cell.Name(), name)
			}
		}
	}
}

// TestOutputWidthsCoverOutputNames pins the width half of the Cell
// contract admission relies on: exactly the OutputNames keys, each width
// positive, and OutputWidthsOf agreeing in OutputNames order.
func TestOutputWidthsCoverOutputNames(t *testing.T) {
	rng := tensor.NewRNG(12)
	for _, tc := range stepIntoCases(rng) {
		widths := tc.cell.OutputWidths()
		names := tc.cell.OutputNames()
		if len(widths) != len(names) {
			t.Fatalf("%s: OutputWidths has %d entries, OutputNames %d", tc.cell.Name(), len(widths), len(names))
		}
		for _, name := range names {
			if w, ok := widths[name]; !ok || w <= 0 {
				t.Fatalf("%s: OutputWidths[%q] = %d, %v", tc.cell.Name(), name, w, ok)
			}
		}
		ordered, err := OutputWidthsOf(tc.cell)
		if err != nil {
			t.Fatalf("%s: OutputWidthsOf: %v", tc.cell.Name(), err)
		}
		for o, name := range names {
			if ordered[o] != widths[name] {
				t.Fatalf("%s: OutputWidthsOf[%d] = %d, want %d", tc.cell.Name(), o, ordered[o], widths[name])
			}
		}
	}
}

// TestStepIntoRejectsBadBuffers asserts the shape check on caller buffers.
func TestStepIntoRejectsBadBuffers(t *testing.T) {
	rng := tensor.NewRNG(13)
	cell := NewLSTMCell("lstm", testEmbed, testHidden, rng)
	in := randInputs(rng, 2, map[string]int{"x": testEmbed, "h": testHidden, "c": testHidden})
	out := map[string]*tensor.Tensor{
		"h": tensor.New(2, testHidden),
		"c": tensor.New(2, testHidden+1), // wrong width
	}
	if err := cell.StepInto(in, out, nil); err == nil {
		t.Fatal("StepInto accepted a mis-shaped output buffer")
	}
	delete(out, "c")
	if err := cell.StepInto(in, out, nil); err == nil {
		t.Fatal("StepInto accepted a missing output buffer")
	}
}

// TestLSTMStepIntoZeroAlloc is the satellite zero-alloc assertion: with a
// warmed arena and preallocated buffers, one LSTM step performs no heap
// allocation.
func TestLSTMStepIntoZeroAlloc(t *testing.T) {
	rng := tensor.NewRNG(14)
	cell := NewLSTMCell("lstm", 32, 64, rng)
	in := randInputs(rng, 4, map[string]int{"x": 32, "h": 64, "c": 64})
	out := map[string]*tensor.Tensor{
		"h": tensor.New(4, 64),
		"c": tensor.New(4, 64),
	}
	arena := tensor.NewArena(0)
	// Warm the arena slab.
	if err := cell.StepInto(in, out, arena); err != nil {
		t.Fatal(err)
	}
	arena.Reset()
	allocs := testing.AllocsPerRun(50, func() {
		if err := cell.StepInto(in, out, arena); err != nil {
			t.Fatal(err)
		}
		arena.Reset()
	})
	if allocs != 0 {
		t.Fatalf("LSTMCell.StepInto allocates %.1f times per step, want 0", allocs)
	}
}

// TestDecoderStepIntoZeroAlloc extends the zero-alloc assertion to the most
// complex cell (embedding gather + LSTM + projection + argmax).
func TestDecoderStepIntoZeroAlloc(t *testing.T) {
	rng := tensor.NewRNG(15)
	cell := NewDecoderCell("dec", 100, 16, 32, rng)
	ids := tensor.New(2, 1)
	ids.Set(5, 0, 0)
	ids.Set(9, 1, 0)
	in := mergeInputs(map[string]*tensor.Tensor{"ids": ids},
		randInputs(rng, 2, map[string]int{"h": 32, "c": 32}))
	out := map[string]*tensor.Tensor{
		"h":      tensor.New(2, 32),
		"c":      tensor.New(2, 32),
		"word":   tensor.New(2, 1),
		"logits": tensor.New(2, 100),
	}
	arena := tensor.NewArena(0)
	if err := cell.StepInto(in, out, arena); err != nil {
		t.Fatal(err)
	}
	arena.Reset()
	allocs := testing.AllocsPerRun(50, func() {
		if err := cell.StepInto(in, out, arena); err != nil {
			t.Fatal(err)
		}
		arena.Reset()
	})
	if allocs != 0 {
		t.Fatalf("DecoderCell.StepInto allocates %.1f times per step, want 0", allocs)
	}
}

// TestGRUStepIntoZeroAlloc: the same contract for the GRU's three-matmul
// body on the arena path.
func TestGRUStepIntoZeroAlloc(t *testing.T) {
	c := NewGRUCell("g", 64, 64, tensor.NewRNG(5))
	testStepIntoZeroAlloc(t, c, map[string]*tensor.Tensor{
		"x": tensor.RandNormal(tensor.NewRNG(6), 1, 8, 64),
		"h": tensor.New(8, 64),
	})
}

// testStepIntoZeroAlloc drives StepInto through a warm arena and asserts
// zero allocations per cycle.
func testStepIntoZeroAlloc(t *testing.T, c Cell, inputs map[string]*tensor.Tensor) {
	t.Helper()
	rows := inputs[c.InputNames()[0]].Shape()[0]
	out := map[string]*tensor.Tensor{}
	for name, w := range c.OutputWidths() {
		out[name] = tensor.New(rows, w)
	}
	arena := tensor.NewArena(0)
	cycle := func() {
		arena.Reset()
		if err := c.StepInto(inputs, out, arena); err != nil {
			t.Fatalf("StepInto: %v", err)
		}
	}
	cycle()
	cycle() // warm: slab at high-water, headers recycled
	if n := testing.AllocsPerRun(50, cycle); n != 0 {
		t.Fatalf("%s StepInto allocates %v times per run, want 0", c.Name(), n)
	}
}

// benchmarkStep times one warm-arena StepInto of c over inputs.
func benchmarkStep(b *testing.B, c Cell, inputs map[string]*tensor.Tensor) {
	rows := inputs[c.InputNames()[0]].Shape()[0]
	out := map[string]*tensor.Tensor{}
	for name, w := range c.OutputWidths() {
		out[name] = tensor.New(rows, w)
	}
	arena := tensor.NewArena(0)
	for i := 0; i < 3; i++ {
		arena.Reset()
		if err := c.StepInto(inputs, out, arena); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arena.Reset()
		if err := c.StepInto(inputs, out, arena); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLSTMStepF32 / BenchmarkGRUStepF32 are the per-step cell
// benchmarks at the README's shape (Hidden=64, batch 8).
func BenchmarkLSTMStepF32(b *testing.B) {
	benchmarkStep(b, NewLSTMCell("l", 64, 64, tensor.NewRNG(1)), map[string]*tensor.Tensor{
		"x": tensor.RandNormal(tensor.NewRNG(7), 1, 8, 64),
		"h": tensor.RandNormal(tensor.NewRNG(8), 0.5, 8, 64),
		"c": tensor.RandNormal(tensor.NewRNG(9), 0.5, 8, 64),
	})
}

func BenchmarkGRUStepF32(b *testing.B) {
	benchmarkStep(b, NewGRUCell("g", 64, 64, tensor.NewRNG(1)), map[string]*tensor.Tensor{
		"x": tensor.RandNormal(tensor.NewRNG(7), 1, 8, 64),
		"h": tensor.RandNormal(tensor.NewRNG(8), 0.5, 8, 64),
	})
}

// BenchmarkStepVsBatch is the paper's Fig. 3 on this substrate: one StepInto
// of each BENCHMARK.json cell (seq2seq_open/burst_policy encoder and decoder,
// tree_tiny leaf and internal) as the batch grows. us/row is what one request
// pays for the step; cellular batching only helps where it falls with b.
func BenchmarkStepVsBatch(b *testing.B) {
	rng := tensor.NewRNG(2018)
	cells := []struct {
		name   string
		cell   Cell
		hidden int
	}{
		{"encoder_v1000_e64_h128", NewEncoderCell("enc", 1000, 64, 128, rng), 128},
		{"decoder_v1000_e64_h128", NewDecoderCell("dec", 1000, 64, 128, rng), 128},
		{"treeleaf_v500_e32_h32", NewTreeLeafCell("leaf", 500, 32, 32, rng), 32},
		{"treeinternal_h32", NewTreeInternalCell("internal", 32, rng), 32},
	}
	for _, c := range cells {
		for _, rows := range []int{1, 2, 4, 8, 16, 32, 64} {
			inputs := map[string]*tensor.Tensor{}
			for _, name := range c.cell.InputNames() {
				if name == "ids" {
					inputs[name] = tensor.Full(2, rows, 1)
				} else {
					inputs[name] = tensor.RandNormal(rng, 0.5, rows, c.hidden)
				}
			}
			b.Run(fmt.Sprintf("%s/b%d", c.name, rows), func(b *testing.B) {
				benchmarkStep(b, c.cell, inputs)
				us := float64(b.Elapsed().Nanoseconds()) / 1e3 / float64(b.N)
				b.ReportMetric(us, "us/step")
				b.ReportMetric(us/float64(rows), "us/row")
			})
		}
	}
}

// BenchmarkStepVsBatchCold is Fig. 3 with the weights cold, as the paper's
// GPU never has them hot: step i runs LSTM instance i mod n (in = h), and n
// is the fewest instances whose weights, 32·h² bytes each, total 8 MiB or
// more — four at h = 256, one at h = 512 and at h = 1 024 — so no step finds
// its weights in a 2 MiB L2. Past b = 1, x_b1/row is the b = 1 step's time
// over this batch's time per row: Fig. 3's gain, read off, where the b = 1
// step ran in the same invocation.
func BenchmarkStepVsBatchCold(b *testing.B) {
	const coldBytes = 8 << 20
	for _, h := range []int{256, 512, 1024} {
		rng := tensor.NewRNG(2018)
		cells := make([]*LSTMCell, max(1, coldBytes/(32*h*h)))
		for i := range cells {
			cells[i] = NewLSTMCell(fmt.Sprintf("lstm%d", i), h, h, rng)
		}
		var single float64 // us of the b = 1 step; 0 until it has run
		for _, rows := range []int{1, 4, 16, 64} {
			inputs := map[string]*tensor.Tensor{
				"x": tensor.RandNormal(rng, 0.5, rows, h),
				"h": tensor.RandNormal(rng, 0.5, rows, h),
				"c": tensor.RandNormal(rng, 0.5, rows, h),
			}
			out := map[string]*tensor.Tensor{"h": tensor.New(rows, h), "c": tensor.New(rows, h)}
			b.Run(fmt.Sprintf("lstm_h%d_x%d/b%d", h, len(cells), rows), func(b *testing.B) {
				arena := tensor.NewArena(0)
				step := func(c *LSTMCell) {
					arena.Reset()
					if err := c.StepInto(inputs, out, arena); err != nil {
						b.Fatal(err)
					}
				}
				step(cells[0]) // warm the arena
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					step(cells[i%len(cells)])
				}
				us := float64(b.Elapsed().Nanoseconds()) / 1e3 / float64(b.N)
				b.ReportMetric(us, "us/step")
				b.ReportMetric(us/float64(rows), "us/row")
				switch {
				case rows == 1:
					single = us
				case single > 0:
					b.ReportMetric(single/(us/float64(rows)), "x_b1/row")
				}
			})
		}
	}
}

// TestNameAccessorsDoNotAllocate: admission calls InputNames/OutputNames per
// node, so every built-in cell must hand back one backing slice rather than a
// fresh literal. Two calls also have to agree, element for element.
func TestNameAccessorsDoNotAllocate(t *testing.T) {
	cases := stepIntoCases(tensor.NewRNG(13))
	if len(cases) != 7 {
		t.Fatalf("expected all seven built-in cells, got %d", len(cases))
	}
	var sink []string
	for _, tc := range cases {
		cell := tc.cell
		for _, acc := range []struct {
			name string
			get  func() []string
		}{{"InputNames", cell.InputNames}, {"OutputNames", cell.OutputNames}} {
			if n := testing.AllocsPerRun(100, func() { sink = acc.get() }); n != 0 {
				t.Errorf("%s.%s allocates %v objects per call, want 0", cell.Name(), acc.name, n)
			}
			a, b := acc.get(), acc.get()
			if len(a) == 0 || &a[0] != &b[0] || len(a) != len(b) {
				t.Errorf("%s.%s does not return one backing slice", cell.Name(), acc.name)
			}
		}
	}
	_ = sink
}
