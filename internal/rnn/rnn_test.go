package rnn

import (
	"math"
	"strings"
	"testing"

	"batchmaker/internal/graph"
	"batchmaker/internal/tensor"
)

const (
	testHidden = 16
	testEmbed  = 8
	testVocab  = 50
)

func randInputs(rng *tensor.RNG, b int, specs map[string]int) map[string]*tensor.Tensor {
	in := make(map[string]*tensor.Tensor, len(specs))
	for name, w := range specs {
		in[name] = tensor.RandUniform(rng, 1, b, w)
	}
	return in
}

func randIDs(rng *tensor.RNG, b, vocab int) *tensor.Tensor {
	t := tensor.New(b, 1)
	for i := 0; i < b; i++ {
		t.Set(float32(rng.Intn(vocab)), i, 0)
	}
	return t
}

// checkInterpreterEquivalence runs the cell's fast path and the graph
// interpreter on the same inputs and compares outputs. outMap maps the fast
// path's output names to the CellDef's output names.
func checkInterpreterEquivalence(t *testing.T, cell Cell, inputs map[string]*tensor.Tensor, outMap map[string]string) {
	t.Helper()
	exp, ok := cell.(DefExporter)
	if !ok {
		t.Fatalf("cell %s does not export a definition", cell.Name())
	}
	ex, err := graph.NewExecutor(exp.Def(), exp.Weights())
	if err != nil {
		t.Fatalf("NewExecutor: %v", err)
	}
	fast, err := cell.Step(inputs)
	if err != nil {
		t.Fatalf("Step: %v", err)
	}
	interp, err := ex.Run(inputs)
	if err != nil {
		t.Fatalf("interpreter Run: %v", err)
	}
	for fastName, defName := range outMap {
		if !fast[fastName].AllClose(interp[defName], 1e-5) {
			t.Fatalf("cell %s: fast %q diverges from interpreted %q", cell.Name(), fastName, defName)
		}
	}
}

// checkBatchingTransparency verifies the core cellular-batching invariant at
// the cell level: executing a batch of b rows in one Step gives bit for bit
// the result of executing each row alone.
func checkBatchingTransparency(t *testing.T, cell Cell, inputs map[string]*tensor.Tensor) {
	t.Helper()
	batched, err := cell.Step(inputs)
	if err != nil {
		t.Fatalf("batched Step: %v", err)
	}
	b := 0
	for _, v := range inputs {
		b = v.Dim(0)
		break
	}
	for r := 0; r < b; r++ {
		single := make(map[string]*tensor.Tensor, len(inputs))
		for name, v := range inputs {
			single[name] = tensor.SliceRows(v, r, r+1)
		}
		out, err := cell.Step(single)
		if err != nil {
			t.Fatalf("single Step row %d: %v", r, err)
		}
		for name, v := range out {
			want := batched[name].RowSlice(r)
			for j, got := range v.RowSlice(0) {
				if math.Float32bits(got) != math.Float32bits(want[j]) {
					t.Fatalf("cell %s b=%d output %q row %d col %d: single %x, batched %x",
						cell.Name(), b, name, r, j, math.Float32bits(got), math.Float32bits(want[j]))
				}
			}
		}
	}
}

// zooCells builds one instance of each of the seven built-in cells at the
// given hidden width, with vocabulary testVocab and input width testEmbed.
func zooCells(rng *tensor.RNG, hidden int) []IntoStepper {
	return []IntoStepper{
		NewLSTMCell("lstm", testEmbed, hidden, rng),
		NewGRUCell("gru", testEmbed, hidden, rng),
		NewStackedLSTMCell("stack", testEmbed, hidden, 3, rng),
		NewTreeLeafCell("leaf", testVocab, testEmbed, hidden, rng),
		NewTreeInternalCell("internal", hidden, rng),
		NewEncoderCell("enc", testVocab, testEmbed, hidden, rng),
		NewDecoderCell("dec", testVocab, testEmbed, hidden, rng),
	}
}

// zooInputs draws b rows of every input of a zooCells cell: word ids for
// "ids", testEmbed columns for "x", hidden columns for every state.
func zooInputs(rng *tensor.RNG, cell Cell, b, hidden int) map[string]*tensor.Tensor {
	in := make(map[string]*tensor.Tensor, len(cell.InputNames()))
	for _, name := range cell.InputNames() {
		switch name {
		case "ids":
			in[name] = randIDs(rng, b, testVocab)
		case "x":
			in[name] = tensor.RandUniform(rng, 1, b, testEmbed)
		default:
			in[name] = tensor.RandUniform(rng, 1, b, hidden)
		}
	}
	return in
}

// TestBatchingTransparencyBitExact runs checkBatchingTransparency on every
// built-in cell at hidden widths 5 and 7, so each gate row mixes four-wide
// activation lanes with a scalar tail, and at batch sizes on both sides of
// the matmul's 4-row blocks.
func TestBatchingTransparencyBitExact(t *testing.T) {
	rng := tensor.NewRNG(61)
	for _, hidden := range []int{5, 7} {
		for _, cell := range zooCells(rng, hidden) {
			for _, b := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17} {
				checkBatchingTransparency(t, cell, zooInputs(rng, cell, b, hidden))
			}
		}
	}
}

func TestLSTMStepMatchesReference(t *testing.T) {
	rng := tensor.NewRNG(42)
	cell := NewLSTMCell("lstm", testEmbed, testHidden, rng)
	in := randInputs(rng, 3, map[string]int{"x": testEmbed, "h": testHidden, "c": testHidden})
	out, err := cell.Step(in)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		hRef, cRef := cell.StepRef(in["x"].RowSlice(r), in["h"].RowSlice(r), in["c"].RowSlice(r))
		for j := 0; j < testHidden; j++ {
			if d := out["h"].At(r, j) - hRef[j]; d > 1e-5 || d < -1e-5 {
				t.Fatalf("h[%d][%d]: fast %v ref %v", r, j, out["h"].At(r, j), hRef[j])
			}
			if d := out["c"].At(r, j) - cRef[j]; d > 1e-5 || d < -1e-5 {
				t.Fatalf("c[%d][%d]: fast %v ref %v", r, j, out["c"].At(r, j), cRef[j])
			}
		}
	}
}

func TestLSTMInterpreterEquivalence(t *testing.T) {
	rng := tensor.NewRNG(7)
	cell := NewLSTMCell("lstm", testEmbed, testHidden, rng)
	in := randInputs(rng, 4, map[string]int{"x": testEmbed, "h": testHidden, "c": testHidden})
	checkInterpreterEquivalence(t, cell, in, map[string]string{"h": "h_new", "c": "c_new"})
}

func TestLSTMBatchingTransparency(t *testing.T) {
	rng := tensor.NewRNG(9)
	cell := NewLSTMCell("lstm", testEmbed, testHidden, rng)
	in := randInputs(rng, 5, map[string]int{"x": testEmbed, "h": testHidden, "c": testHidden})
	checkBatchingTransparency(t, cell, in)
}

func TestLSTMErrors(t *testing.T) {
	rng := tensor.NewRNG(1)
	cell := NewLSTMCell("lstm", testEmbed, testHidden, rng)
	if _, err := cell.Step(map[string]*tensor.Tensor{}); err == nil || !strings.Contains(err.Error(), "missing input") {
		t.Fatalf("want missing-input error, got %v", err)
	}
	in := randInputs(rng, 2, map[string]int{"x": testEmbed, "h": testHidden, "c": testHidden})
	in["h"] = tensor.New(3, testHidden)
	if _, err := cell.Step(in); err == nil || !strings.Contains(err.Error(), "batch") {
		t.Fatalf("want batch error, got %v", err)
	}
	in = randInputs(rng, 2, map[string]int{"x": testEmbed + 1, "h": testHidden, "c": testHidden})
	if _, err := cell.Step(in); err == nil || !strings.Contains(err.Error(), "widths") {
		t.Fatalf("want width error, got %v", err)
	}
}

func TestLSTMForgetBiasInitialized(t *testing.T) {
	rng := tensor.NewRNG(1)
	cell := NewLSTMCell("lstm", 4, 4, rng)
	for j := 4; j < 8; j++ {
		if cell.bias.At(j) != 1 {
			t.Fatalf("forget bias[%d] = %v, want 1", j, cell.bias.At(j))
		}
	}
	if cell.bias.At(0) != 0 || cell.bias.At(15) != 0 {
		t.Fatal("non-forget bias must start at 0")
	}
}

func TestEncoderCellEquivalenceAndTransparency(t *testing.T) {
	rng := tensor.NewRNG(11)
	cell := NewEncoderCell("enc", testVocab, testEmbed, testHidden, rng)
	in := randInputs(rng, 4, map[string]int{"h": testHidden, "c": testHidden})
	in["ids"] = randIDs(rng, 4, testVocab)
	checkInterpreterEquivalence(t, cell, in, map[string]string{"h": "h_new", "c": "c_new"})
	checkBatchingTransparency(t, cell, in)
}

func TestDecoderCellEquivalenceAndTransparency(t *testing.T) {
	rng := tensor.NewRNG(13)
	cell := NewDecoderCell("dec", testVocab, testEmbed, testHidden, rng)
	in := randInputs(rng, 4, map[string]int{"h": testHidden, "c": testHidden})
	in["ids"] = randIDs(rng, 4, testVocab)
	checkInterpreterEquivalence(t, cell, in, map[string]string{"h": "h_new", "c": "c_new", "word": "word", "logits": "logits"})
	checkBatchingTransparency(t, cell, in)
}

func TestDecoderEmitsInVocabWords(t *testing.T) {
	rng := tensor.NewRNG(17)
	cell := NewDecoderCell("dec", testVocab, testEmbed, testHidden, rng)
	in := randInputs(rng, 8, map[string]int{"h": testHidden, "c": testHidden})
	in["ids"] = randIDs(rng, 8, testVocab)
	out, err := cell.Step(in)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		w := int(out["word"].At(i, 0))
		if w < 0 || w >= testVocab {
			t.Fatalf("emitted word %d out of vocabulary", w)
		}
	}
}

func TestDecoderOutOfVocabInput(t *testing.T) {
	rng := tensor.NewRNG(17)
	cell := NewDecoderCell("dec", testVocab, testEmbed, testHidden, rng)
	in := randInputs(rng, 1, map[string]int{"h": testHidden, "c": testHidden})
	in["ids"] = tensor.FromSlice([]float32{float32(testVocab)}, 1, 1)
	if _, err := cell.Step(in); err == nil || !strings.Contains(err.Error(), "vocabulary") {
		t.Fatalf("want vocabulary error, got %v", err)
	}
}

func TestEncoderDecoderDistinctTypes(t *testing.T) {
	rng := tensor.NewRNG(19)
	enc := NewEncoderCell("enc", testVocab, testEmbed, testHidden, rng)
	dec := NewDecoderCell("dec", testVocab, testEmbed, testHidden, rng)
	if enc.TypeKey() == dec.TypeKey() {
		t.Fatal("encoder and decoder must be distinct cell types")
	}
	// Two encoders with different weights are distinct types too.
	enc2 := NewEncoderCell("enc", testVocab, testEmbed, testHidden, rng)
	if enc.TypeKey() == enc2.TypeKey() {
		t.Fatal("different weights must yield different types")
	}
}

func TestTreeLeafEquivalenceAndTransparency(t *testing.T) {
	rng := tensor.NewRNG(23)
	cell := NewTreeLeafCell("leaf", testVocab, testEmbed, testHidden, rng)
	in := map[string]*tensor.Tensor{"ids": randIDs(rng, 6, testVocab)}
	checkInterpreterEquivalence(t, cell, in, map[string]string{"h": "h_out", "c": "c_out"})
	checkBatchingTransparency(t, cell, in)
}

func TestTreeInternalEquivalenceAndTransparency(t *testing.T) {
	rng := tensor.NewRNG(29)
	cell := NewTreeInternalCell("internal", testHidden, rng)
	in := randInputs(rng, 5, map[string]int{"hl": testHidden, "cl": testHidden, "hr": testHidden, "cr": testHidden})
	checkInterpreterEquivalence(t, cell, in, map[string]string{"h": "h_out", "c": "c_out"})
	checkBatchingTransparency(t, cell, in)
}

func TestTreeCellsDistinctTypes(t *testing.T) {
	rng := tensor.NewRNG(31)
	leaf := NewTreeLeafCell("leaf", testVocab, testEmbed, testHidden, rng)
	internal := NewTreeInternalCell("internal", testHidden, rng)
	if leaf.TypeKey() == internal.TypeKey() {
		t.Fatal("leaf and internal cells must be distinct types")
	}
}

func TestGRUEquivalenceAndTransparency(t *testing.T) {
	rng := tensor.NewRNG(37)
	cell := NewGRUCell("gru", testEmbed, testHidden, rng)
	in := randInputs(rng, 4, map[string]int{"x": testEmbed, "h": testHidden})
	checkInterpreterEquivalence(t, cell, in, map[string]string{"h": "h_new"})
	checkBatchingTransparency(t, cell, in)
}

func TestGRUStateStaysBounded(t *testing.T) {
	// GRU output is a convex-ish mix of tanh values; iterating many steps
	// must not blow up.
	rng := tensor.NewRNG(41)
	cell := NewGRUCell("gru", testEmbed, testHidden, rng)
	h := tensor.New(2, testHidden)
	for step := 0; step < 50; step++ {
		x := tensor.RandUniform(rng, 1, 2, testEmbed)
		out, err := cell.Step(map[string]*tensor.Tensor{"x": x, "h": h})
		if err != nil {
			t.Fatal(err)
		}
		h = out["h"]
	}
	if tensor.MaxAbs(h) > 1.0001 {
		t.Fatalf("GRU hidden state escaped [-1,1]: %v", tensor.MaxAbs(h))
	}
}

func TestCellDefsSerializeRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(43)
	cells := []DefExporter{
		NewLSTMCell("lstm", testEmbed, testHidden, rng),
		NewEncoderCell("enc", testVocab, testEmbed, testHidden, rng),
		NewDecoderCell("dec", testVocab, testEmbed, testHidden, rng),
		NewTreeLeafCell("leaf", testVocab, testEmbed, testHidden, rng),
		NewTreeInternalCell("internal", testHidden, rng),
		NewGRUCell("gru", testEmbed, testHidden, rng),
	}
	for _, c := range cells {
		data, err := c.Def().ToJSON()
		if err != nil {
			t.Fatalf("%s: ToJSON: %v", c.Def().Name, err)
		}
		back, err := graph.FromJSON(data)
		if err != nil {
			t.Fatalf("%s: FromJSON: %v", c.Def().Name, err)
		}
		if _, err := graph.NewExecutor(back, c.Weights()); err != nil {
			t.Fatalf("%s: executor over round-tripped def: %v", c.Def().Name, err)
		}
	}
}

func TestStepDoesNotMutateInputs(t *testing.T) {
	rng := tensor.NewRNG(47)
	cell := NewLSTMCell("lstm", testEmbed, testHidden, rng)
	in := randInputs(rng, 2, map[string]int{"x": testEmbed, "h": testHidden, "c": testHidden})
	snapshot := map[string]*tensor.Tensor{}
	for k, v := range in {
		snapshot[k] = v.Clone()
	}
	if _, err := cell.Step(in); err != nil {
		t.Fatal(err)
	}
	for k, v := range in {
		if !v.Equal(snapshot[k]) {
			t.Fatalf("Step mutated input %q", k)
		}
	}
}
