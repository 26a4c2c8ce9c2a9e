package rnn

import (
	"fmt"

	"batchmaker/internal/graph"
	"batchmaker/internal/tensor"
)

// LSTMCell is the standard Long Short-Term Memory cell (Hochreiter &
// Schmidhuber) in the fused formulation the paper microbenchmarks (§2.2):
// one matrix multiplication with input [b, in+h] @ W [in+h, 4h], followed by
// element-wise gate operations:
//
//	i, f, g, o = split(σ/tanh([x, h] @ W + bias))
//	c' = f*c + i*g
//	h' = o * tanh(c')
//
// Inputs: "x" [b, in], "h" [b, h], "c" [b, h]. Outputs: "h", "c".
type LSTMCell struct {
	name    string
	inDim   int
	hidden  int
	w       *tensor.Tensor // [in+h, 4h]
	bias    *tensor.Tensor // [4h]
	typeKey string
}

// NewLSTMCell creates an LSTM cell with Xavier-initialized weights and the
// forget-gate bias set to 1 (the standard trick so freshly initialized cells
// retain state).
func NewLSTMCell(name string, inDim, hidden int, rng *tensor.RNG) *LSTMCell {
	if inDim <= 0 || hidden <= 0 {
		panic(fmt.Sprintf("rnn: invalid LSTM dims in=%d hidden=%d", inDim, hidden))
	}
	c := &LSTMCell{
		name:   name,
		inDim:  inDim,
		hidden: hidden,
		w:      tensor.XavierInit(rng, inDim+hidden, 4*hidden),
		bias:   tensor.New(4 * hidden),
	}
	for j := hidden; j < 2*hidden; j++ { // forget-gate slice
		c.bias.Set(1, j)
	}
	c.typeKey = c.Def().TypeKey(c.Weights().Fingerprint())
	return c
}

// Name implements Cell.
func (c *LSTMCell) Name() string { return c.name }

// TypeKey implements Cell.
func (c *LSTMCell) TypeKey() string { return c.typeKey }

// InputNames implements Cell.
func (c *LSTMCell) InputNames() []string { return namesXHC }

// OutputNames implements Cell.
func (c *LSTMCell) OutputNames() []string { return namesHC }

// InDim returns the input embedding width.
func (c *LSTMCell) InDim() int { return c.inDim }

// Hidden returns the hidden-state width.
func (c *LSTMCell) Hidden() int { return c.hidden }

// OutputWidths implements Cell.
func (c *LSTMCell) OutputWidths() map[string]int {
	return map[string]int{"h": c.hidden, "c": c.hidden}
}

// StepInto implements Cell with one fused step: one [x,h]
// concatenation, one bias-initialized gate matmul, and one flat-slice gate
// sweep, all in caller/arena memory.
func (c *LSTMCell) StepInto(inputs, out map[string]*tensor.Tensor, a *tensor.Arena) error {
	b, err := batchOf(inputs, c.InputNames())
	if err != nil {
		return fmt.Errorf("%s: %w", c.name, err)
	}
	x, h, cc := inputs["x"], inputs["h"], inputs["c"]
	if x.Dim(1) != c.inDim || h.Dim(1) != c.hidden || cc.Dim(1) != c.hidden {
		return fmt.Errorf("rnn: %s: bad input widths x=%v h=%v c=%v", c.name, x.Shape(), h.Shape(), cc.Shape())
	}
	hOut, err := outBuf(out, c.name, "h", b, c.hidden)
	if err != nil {
		return err
	}
	cOut, err := outBuf(out, c.name, "c", b, c.hidden)
	if err != nil {
		return err
	}
	c.stepCore(x, h, cc, hOut, cOut, a)
	return nil
}

// stepCore is the shared LSTM body: encoder, decoder and stacked cells call
// it directly with their own buffers. Inputs are assumed shape-checked.
func (c *LSTMCell) stepCore(x, h, cPrev, hOut, cOut *tensor.Tensor, a *tensor.Arena) {
	b := x.Dim(0)
	xh := a.Get(b, c.inDim+c.hidden)
	tensor.ConcatColsInto(xh, x, h)
	gates := a.Get(b, 4*c.hidden)
	tensor.MatMulAddBiasInto(gates, xh, c.w, c.bias)
	applyLSTMGates(gates, cPrev, hOut, cOut, c.hidden)
}

// applyLSTMGates consumes fused pre-activations [b, 4h] laid out as
// [i | f | g | o] and writes the new hidden and cell states over the flat
// backing slices (all operands are dense row-major, so row r of a width-w
// tensor is data[r*w : (r+1)*w]). Per row, the activations sweep the gates
// in place (they are scratch): sigmoid over [i | f], tanh over g, sigmoid
// over o; then c' = f·c + i·g and h' = tanh(c')·o.
func applyLSTMGates(gates, cPrev, hNew, cNew *tensor.Tensor, hidden int) {
	b := gates.Dim(0)
	gd, cp, hn, cn := gates.Data(), cPrev.Data(), hNew.Data(), cNew.Data()
	for r := 0; r < b; r++ {
		g := gd[r*4*hidden : (r+1)*4*hidden]
		cpr := cp[r*hidden : (r+1)*hidden]
		hnr := hn[r*hidden : (r+1)*hidden]
		cnr := cn[r*hidden : (r+1)*hidden]
		tensor.SigmoidSlice(g[:2*hidden], g[:2*hidden])
		tensor.TanhSlice(g[2*hidden:3*hidden], g[2*hidden:3*hidden])
		tensor.SigmoidSlice(g[3*hidden:], g[3*hidden:])
		i, f, gg, o := g[:hidden], g[hidden:2*hidden], g[2*hidden:3*hidden], g[3*hidden:]
		for j := range cnr {
			cnr[j] = f[j]*cpr[j] + i[j]*gg[j]
		}
		tensor.TanhSlice(hnr, cnr)
		for j, oj := range o {
			hnr[j] *= oj
		}
	}
}

// Def implements DefExporter: the same computation expressed as a dataflow
// graph for the interpreter.
func (c *LSTMCell) Def() *graph.CellDef {
	h := c.hidden
	return &graph.CellDef{
		Name: c.name,
		Inputs: []graph.TensorSpec{
			{Name: "x", Shape: []int{c.inDim}},
			{Name: "h", Shape: []int{h}},
			{Name: "c", Shape: []int{h}},
		},
		Params: []graph.TensorSpec{
			{Name: "w", Shape: []int{c.inDim + h, 4 * h}},
			{Name: "bias", Shape: []int{4 * h}},
		},
		Outputs: []string{"h_new", "c_new"},
		Nodes: []graph.NodeDef{
			{Name: "xh", Op: graph.OpConcatCols, Inputs: []string{"x", "h"}},
			{Name: "mm", Op: graph.OpMatMul, Inputs: []string{"xh", "w"}},
			{Name: "gates", Op: graph.OpAddBias, Inputs: []string{"mm", "bias"}},
			{Name: "pre_i", Op: graph.OpSliceCols, Inputs: []string{"gates"}, Attrs: map[string]int{"begin": 0, "end": h}},
			{Name: "pre_f", Op: graph.OpSliceCols, Inputs: []string{"gates"}, Attrs: map[string]int{"begin": h, "end": 2 * h}},
			{Name: "pre_g", Op: graph.OpSliceCols, Inputs: []string{"gates"}, Attrs: map[string]int{"begin": 2 * h, "end": 3 * h}},
			{Name: "pre_o", Op: graph.OpSliceCols, Inputs: []string{"gates"}, Attrs: map[string]int{"begin": 3 * h, "end": 4 * h}},
			{Name: "gate_i", Op: graph.OpSigmoid, Inputs: []string{"pre_i"}},
			{Name: "gate_f", Op: graph.OpSigmoid, Inputs: []string{"pre_f"}},
			{Name: "gate_g", Op: graph.OpTanh, Inputs: []string{"pre_g"}},
			{Name: "gate_o", Op: graph.OpSigmoid, Inputs: []string{"pre_o"}},
			{Name: "forgotten", Op: graph.OpMul, Inputs: []string{"gate_f", "c"}},
			{Name: "written", Op: graph.OpMul, Inputs: []string{"gate_i", "gate_g"}},
			{Name: "c_new", Op: graph.OpAdd, Inputs: []string{"forgotten", "written"}},
			{Name: "c_act", Op: graph.OpTanh, Inputs: []string{"c_new"}},
			{Name: "h_new", Op: graph.OpMul, Inputs: []string{"gate_o", "c_act"}},
		},
	}
}

// Weights implements DefExporter.
func (c *LSTMCell) Weights() graph.Weights {
	return graph.Weights{"w": c.w, "bias": c.bias}
}

// StepRef is a deliberately naive single-example reference implementation
// (no fusion, no batching) used by tests to validate StepInto.
func (c *LSTMCell) StepRef(x, h, cc []float32) (hNew, cNew []float32) {
	hNew = make([]float32, c.hidden)
	cNew = make([]float32, c.hidden)
	pre := make([]float32, 4*c.hidden)
	xh := append(append([]float32{}, x...), h...)
	for j := 0; j < 4*c.hidden; j++ {
		s := c.bias.Data()[j]
		for k, v := range xh {
			s += v * c.w.At(k, j)
		}
		pre[j] = s
	}
	for j := 0; j < c.hidden; j++ {
		i := tensor.Sigmoid32(pre[j])
		f := tensor.Sigmoid32(pre[c.hidden+j])
		g := tensor.Tanh32(pre[2*c.hidden+j])
		o := tensor.Sigmoid32(pre[3*c.hidden+j])
		cNew[j] = f*cc[j] + i*g
		hNew[j] = o * tensor.Tanh32(cNew[j])
	}
	return hNew, cNew
}
