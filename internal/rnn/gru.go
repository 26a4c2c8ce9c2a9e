package rnn

import (
	"fmt"

	"batchmaker/internal/graph"
	"batchmaker/internal/tensor"
)

// GRUCell is a Gated Recurrent Unit cell, provided as an extension beyond
// the paper's three evaluation models (the paper's mechanism is agnostic to
// the cell body — any subgraph with shared weights batches the same way):
//
//	z  = σ([x,h] @ Wz + bz)
//	r  = σ([x,h] @ Wr + br)
//	hc = tanh([x, r*h] @ Wh + bh)
//	h' = h + z*(hc - h)
//
// Inputs: "x" [b,in], "h" [b,h]. Outputs: "h".
type GRUCell struct {
	name    string
	inDim   int
	hidden  int
	wz, wr  *tensor.Tensor // [in+h, h]
	wh      *tensor.Tensor // [in+h, h]
	bz, br  *tensor.Tensor // [h]
	bh      *tensor.Tensor // [h]
	typeKey string
}

// NewGRUCell creates a GRU cell with Xavier-initialized weights.
func NewGRUCell(name string, inDim, hidden int, rng *tensor.RNG) *GRUCell {
	if inDim <= 0 || hidden <= 0 {
		panic(fmt.Sprintf("rnn: invalid GRU dims in=%d hidden=%d", inDim, hidden))
	}
	c := &GRUCell{
		name:   name,
		inDim:  inDim,
		hidden: hidden,
		wz:     tensor.XavierInit(rng, inDim+hidden, hidden),
		wr:     tensor.XavierInit(rng, inDim+hidden, hidden),
		wh:     tensor.XavierInit(rng, inDim+hidden, hidden),
		bz:     tensor.New(hidden),
		br:     tensor.New(hidden),
		bh:     tensor.New(hidden),
	}
	c.typeKey = c.Def().TypeKey(c.Weights().Fingerprint())
	return c
}

// Name implements Cell.
func (c *GRUCell) Name() string { return c.name }

// TypeKey implements Cell.
func (c *GRUCell) TypeKey() string { return c.typeKey }

// InputNames implements Cell.
func (c *GRUCell) InputNames() []string { return namesXH }

// OutputNames implements Cell.
func (c *GRUCell) OutputNames() []string { return namesH }

// Hidden returns the hidden width.
func (c *GRUCell) Hidden() int { return c.hidden }

// OutputWidths implements Cell.
func (c *GRUCell) OutputWidths() map[string]int {
	return map[string]int{"h": c.hidden}
}

// StepInto implements Cell. The element order of every op matches
// the allocating formulation (z, r, hc, then h + z*(hc-h)), so results are
// unchanged; only the memory behaviour differs.
func (c *GRUCell) StepInto(inputs, out map[string]*tensor.Tensor, a *tensor.Arena) error {
	b, err := batchOf(inputs, c.InputNames())
	if err != nil {
		return fmt.Errorf("%s: %w", c.name, err)
	}
	x, h := inputs["x"], inputs["h"]
	if x.Dim(1) != c.inDim || h.Dim(1) != c.hidden {
		return fmt.Errorf("rnn: %s: bad input widths x=%v h=%v", c.name, x.Shape(), h.Shape())
	}
	hNew, err := outBuf(out, c.name, "h", b, c.hidden)
	if err != nil {
		return err
	}
	xh := a.Get(b, c.inDim+c.hidden)
	tensor.ConcatColsInto(xh, x, h)
	z := a.Get(b, c.hidden)
	tensor.MatMulAddBiasInto(z, xh, c.wz, c.bz)
	tensor.SigmoidInto(z, z)
	r := a.Get(b, c.hidden)
	tensor.MatMulAddBiasInto(r, xh, c.wr, c.br)
	tensor.SigmoidInto(r, r)
	tensor.MulInto(r, r, h) // r*h; r is not needed past this point
	xrh := a.Get(b, c.inDim+c.hidden)
	tensor.ConcatColsInto(xrh, x, r)
	hc := a.Get(b, c.hidden)
	tensor.MatMulAddBiasInto(hc, xrh, c.wh, c.bh)
	tensor.TanhInto(hc, hc)
	// h' = h + z*(hc - h)
	tensor.SubInto(hc, hc, h)
	tensor.MulInto(hc, z, hc)
	tensor.AddInto(hNew, h, hc)
	return nil
}

// Def implements DefExporter.
func (c *GRUCell) Def() *graph.CellDef {
	return &graph.CellDef{
		Name: c.name,
		Inputs: []graph.TensorSpec{
			{Name: "x", Shape: []int{c.inDim}},
			{Name: "h", Shape: []int{c.hidden}},
		},
		Params: []graph.TensorSpec{
			{Name: "wz", Shape: []int{c.inDim + c.hidden, c.hidden}},
			{Name: "wr", Shape: []int{c.inDim + c.hidden, c.hidden}},
			{Name: "wh", Shape: []int{c.inDim + c.hidden, c.hidden}},
			{Name: "bz", Shape: []int{c.hidden}},
			{Name: "br", Shape: []int{c.hidden}},
			{Name: "bh", Shape: []int{c.hidden}},
		},
		Outputs: []string{"h_new"},
		Nodes: []graph.NodeDef{
			{Name: "xh", Op: graph.OpConcatCols, Inputs: []string{"x", "h"}},
			{Name: "z_mm", Op: graph.OpMatMul, Inputs: []string{"xh", "wz"}},
			{Name: "z_pre", Op: graph.OpAddBias, Inputs: []string{"z_mm", "bz"}},
			{Name: "z", Op: graph.OpSigmoid, Inputs: []string{"z_pre"}},
			{Name: "r_mm", Op: graph.OpMatMul, Inputs: []string{"xh", "wr"}},
			{Name: "r_pre", Op: graph.OpAddBias, Inputs: []string{"r_mm", "br"}},
			{Name: "r", Op: graph.OpSigmoid, Inputs: []string{"r_pre"}},
			{Name: "rh", Op: graph.OpMul, Inputs: []string{"r", "h"}},
			{Name: "xrh", Op: graph.OpConcatCols, Inputs: []string{"x", "rh"}},
			{Name: "hc_mm", Op: graph.OpMatMul, Inputs: []string{"xrh", "wh"}},
			{Name: "hc_pre", Op: graph.OpAddBias, Inputs: []string{"hc_mm", "bh"}},
			{Name: "hc", Op: graph.OpTanh, Inputs: []string{"hc_pre"}},
			{Name: "delta", Op: graph.OpSub, Inputs: []string{"hc", "h"}},
			{Name: "zdelta", Op: graph.OpMul, Inputs: []string{"z", "delta"}},
			{Name: "h_new", Op: graph.OpAdd, Inputs: []string{"h", "zdelta"}},
		},
	}
}

// Weights implements DefExporter.
func (c *GRUCell) Weights() graph.Weights {
	return graph.Weights{
		"wz": c.wz, "wr": c.wr, "wh": c.wh,
		"bz": c.bz, "br": c.br, "bh": c.bh,
	}
}
