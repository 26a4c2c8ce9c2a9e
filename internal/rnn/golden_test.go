package rnn

import (
	"math"
	"testing"

	"batchmaker/internal/tensor"
)

// Golden-value tests: LSTM outputs checked against hand-computed constants,
// guarding against the fused implementation and the naive reference drifting
// together (e.g. a wrong gate order in the [i|f|g|o] layout).

// zeroedLSTM returns a 1-in/1-hidden cell with every weight and bias set to
// zero (including the forget-bias-1 initialization).
func zeroedLSTM(t *testing.T) *LSTMCell {
	t.Helper()
	c := NewLSTMCell("golden", 1, 1, tensor.NewRNG(1))
	for i := range c.w.Data() {
		c.w.Data()[i] = 0
	}
	for i := range c.bias.Data() {
		c.bias.Data()[i] = 0
	}
	return c
}

func stepScalar(t *testing.T, c *LSTMCell, x, h, cc float32) (float32, float32) {
	t.Helper()
	out, err := Step(c, map[string]*tensor.Tensor{
		"x": tensor.FromSlice([]float32{x}, 1, 1),
		"h": tensor.FromSlice([]float32{h}, 1, 1),
		"c": tensor.FromSlice([]float32{cc}, 1, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	return out["h"].At(0, 0), out["c"].At(0, 0)
}

func TestLSTMGoldenZeroWeights(t *testing.T) {
	// All-zero weights: every gate is σ(0)=0.5 (g = tanh(0) = 0), so
	// c' = 0.5·c and h' = 0.5·tanh(0.5·c). With c=1:
	// c' = 0.5, h' = 0.2310585786.
	c := zeroedLSTM(t)
	h, cc := stepScalar(t, c, 0.7, 0.3, 1.0)
	if math.Abs(float64(cc)-0.5) > 1e-6 {
		t.Fatalf("c' = %v, want 0.5", cc)
	}
	if math.Abs(float64(h)-0.23105857863) > 1e-6 {
		t.Fatalf("h' = %v, want 0.2310585786", h)
	}
}

func TestLSTMGoldenBiasOnly(t *testing.T) {
	// Weights such that x·w + h·u = 0 (w=1, u=2 with x=0.5, h=-0.25), so
	// the pre-activations equal the biases [0.1, 0.2, 0.3, 0.4]:
	//   i = σ(0.1), f = σ(0.2), g = tanh(0.3), o = σ(0.4)
	//   c' = f·0.8 + i·g = 0.5928002564
	//   h' = o·tanh(c')  = 0.3184459133
	// A wrong gate order in the fused [i|f|g|o] layout breaks this.
	c := zeroedLSTM(t)
	for j := 0; j < 4; j++ {
		c.w.Set(1, 0, j) // x row
		c.w.Set(2, 1, j) // h row
	}
	c.bias.Set(0.1, 0)
	c.bias.Set(0.2, 1)
	c.bias.Set(0.3, 2)
	c.bias.Set(0.4, 3)
	h, cc := stepScalar(t, c, 0.5, -0.25, 0.8)
	if math.Abs(float64(cc)-0.5928002564) > 1e-6 {
		t.Fatalf("c' = %v, want 0.5928002564", cc)
	}
	if math.Abs(float64(h)-0.3184459133) > 1e-6 {
		t.Fatalf("h' = %v, want 0.3184459133", h)
	}
}

func TestLSTMGoldenGateOrderDistinguishable(t *testing.T) {
	// Make the input-gate column different from the rest: if the fused
	// layout confused i with o, the result would change (asymmetric check).
	c := zeroedLSTM(t)
	c.bias.Set(5, 0)  // i ≈ 1
	c.bias.Set(-5, 3) // o ≈ 0
	// g = tanh(0) = 0 → c' = f·c + i·0; with c = 0: c' = 0, h' = o·0 = 0.
	h, cc := stepScalar(t, c, 0, 0, 0)
	if h != 0 || cc != 0 {
		t.Fatalf("h=%v c=%v, want 0,0", h, cc)
	}
	// Now put mass on g: c' = i·g ≈ tanh(1); h' ≈ 0 because o ≈ 0. If i/o
	// were swapped, h' would be large.
	c.bias.Set(5, 2) // g ≈ tanh(5) ≈ 1 ... pre_g = 5 → tanh ≈ 0.9999
	h, cc = stepScalar(t, c, 0, 0, 0)
	if float64(cc) < 0.99 {
		t.Fatalf("c' = %v, want ≈1 (i·g)", cc)
	}
	if float64(h) > 0.01 {
		t.Fatalf("h' = %v, want ≈0 (o gate closed)", h)
	}
}
