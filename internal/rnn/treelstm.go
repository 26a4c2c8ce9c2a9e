package rnn

import (
	"fmt"

	"batchmaker/internal/graph"
	"batchmaker/internal/tensor"
)

// TreeLeafCell is the TreeLSTM leaf cell (grey nodes in the paper's
// Figure 2): it consumes one word and produces the initial (h, c) state for
// that leaf. Following Tai et al.'s formulation, a leaf has no child state
// to forget, so it uses only input, output and update gates:
//
//	x       = embed(ids)
//	i, o, u = split(x @ W + bias)
//	c       = σ(i) * tanh(u)
//	h       = σ(o) * tanh(c)
//
// Inputs: "ids" [b,1]. Outputs: "h", "c".
type TreeLeafCell struct {
	name    string
	vocab   int
	hidden  int
	embed   *tensor.Tensor // [V, e]
	w       *tensor.Tensor // [e, 3h]
	bias    *tensor.Tensor // [3h]
	typeKey string
}

// NewTreeLeafCell builds a leaf cell over vocab words with embedding width
// embedDim and hidden width hidden.
func NewTreeLeafCell(name string, vocab, embedDim, hidden int, rng *tensor.RNG) *TreeLeafCell {
	c := &TreeLeafCell{
		name:   name,
		vocab:  vocab,
		hidden: hidden,
		embed:  tensor.RandNormal(rng, 0.1, vocab, embedDim),
		w:      tensor.XavierInit(rng, embedDim, 3*hidden),
		bias:   tensor.New(3 * hidden),
	}
	c.typeKey = c.Def().TypeKey(c.Weights().Fingerprint())
	return c
}

// Name implements Cell.
func (c *TreeLeafCell) Name() string { return c.name }

// TypeKey implements Cell.
func (c *TreeLeafCell) TypeKey() string { return c.typeKey }

// InputNames implements Cell.
func (c *TreeLeafCell) InputNames() []string { return namesIds }

// OutputNames implements Cell.
func (c *TreeLeafCell) OutputNames() []string { return namesHC }

// Hidden returns the hidden width.
func (c *TreeLeafCell) Hidden() int { return c.hidden }

// Vocab returns the vocabulary size.
func (c *TreeLeafCell) Vocab() int { return c.vocab }

// OutputWidths implements OutputSized.
func (c *TreeLeafCell) OutputWidths() map[string]int {
	return map[string]int{"h": c.hidden, "c": c.hidden}
}

// Step implements Cell as a thin allocating wrapper over StepInto.
func (c *TreeLeafCell) Step(inputs map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	b, err := batchOf(inputs, c.InputNames())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.name, err)
	}
	out := newOut(c, b)
	if err := c.StepInto(inputs, out, nil); err != nil {
		return nil, err
	}
	return out, nil
}

// StepInto implements IntoStepper.
func (c *TreeLeafCell) StepInto(inputs, out map[string]*tensor.Tensor, a *tensor.Arena) error {
	b, err := batchOf(inputs, c.InputNames())
	if err != nil {
		return fmt.Errorf("%s: %w", c.name, err)
	}
	h := c.hidden
	hOut, err := outBuf(out, c.name, "h", b, h)
	if err != nil {
		return err
	}
	cOut, err := outBuf(out, c.name, "c", b, h)
	if err != nil {
		return err
	}
	x := a.Get(b, c.embed.Dim(1))
	if err := embedLookupInto(x, c.embed, inputs["ids"], c.name); err != nil {
		return err
	}
	pre := a.Get(b, 3*h)
	tensor.MatMulAddBiasInto(pre, x, c.w, c.bias)
	pd, hd, cd := pre.Data(), hOut.Data(), cOut.Data()
	for r := 0; r < b; r++ {
		p := pd[r*3*h : (r+1)*3*h]
		hr := hd[r*h : (r+1)*h]
		cr := cd[r*h : (r+1)*h]
		tensor.SigmoidSlice(p[:2*h], p[:2*h])
		tensor.TanhSlice(p[2*h:], p[2*h:])
		i, o, u := p[:h], p[h:2*h], p[2*h:3*h]
		for j := range cr {
			cr[j] = i[j] * u[j]
		}
		tensor.TanhSlice(hr, cr)
		for j, oj := range o {
			hr[j] *= oj
		}
	}
	return nil
}

// Def implements DefExporter.
func (c *TreeLeafCell) Def() *graph.CellDef {
	h := c.hidden
	return &graph.CellDef{
		Name:   c.name,
		Inputs: []graph.TensorSpec{{Name: "ids", Shape: []int{1}}},
		Params: []graph.TensorSpec{
			{Name: "embed", Shape: []int{c.vocab, c.embed.Dim(1)}},
			{Name: "w", Shape: []int{c.embed.Dim(1), 3 * h}},
			{Name: "bias", Shape: []int{3 * h}},
		},
		Outputs: []string{"h_out", "c_out"},
		Nodes: []graph.NodeDef{
			{Name: "x", Op: graph.OpEmbed, Inputs: []string{"ids", "embed"}},
			{Name: "mm", Op: graph.OpMatMul, Inputs: []string{"x", "w"}},
			{Name: "pre", Op: graph.OpAddBias, Inputs: []string{"mm", "bias"}},
			{Name: "pre_i", Op: graph.OpSliceCols, Inputs: []string{"pre"}, Attrs: map[string]int{"begin": 0, "end": h}},
			{Name: "pre_o", Op: graph.OpSliceCols, Inputs: []string{"pre"}, Attrs: map[string]int{"begin": h, "end": 2 * h}},
			{Name: "pre_u", Op: graph.OpSliceCols, Inputs: []string{"pre"}, Attrs: map[string]int{"begin": 2 * h, "end": 3 * h}},
			{Name: "gate_i", Op: graph.OpSigmoid, Inputs: []string{"pre_i"}},
			{Name: "gate_o", Op: graph.OpSigmoid, Inputs: []string{"pre_o"}},
			{Name: "gate_u", Op: graph.OpTanh, Inputs: []string{"pre_u"}},
			{Name: "c_out", Op: graph.OpMul, Inputs: []string{"gate_i", "gate_u"}},
			{Name: "c_act", Op: graph.OpTanh, Inputs: []string{"c_out"}},
			{Name: "h_out", Op: graph.OpMul, Inputs: []string{"gate_o", "c_act"}},
		},
	}
}

// Weights implements DefExporter.
func (c *TreeLeafCell) Weights() graph.Weights {
	return graph.Weights{"embed": c.embed, "w": c.w, "bias": c.bias}
}

// TreeInternalCell is the binary TreeLSTM internal cell (white nodes in
// Figure 2). It merges the states of a left and a right child with separate
// forget gates per child (Tai et al., N-ary TreeLSTM with N=2):
//
//	hlr            = [hl, hr]
//	i, fl, fr, o, u = split(hlr @ W + bias)
//	c              = σ(i)*tanh(u) + σ(fl)*cl + σ(fr)*cr
//	h              = σ(o) * tanh(c)
//
// Inputs: "hl", "cl", "hr", "cr" (each [b,h]). Outputs: "h", "c".
type TreeInternalCell struct {
	name    string
	hidden  int
	w       *tensor.Tensor // [2h, 5h]
	bias    *tensor.Tensor // [5h]
	typeKey string
}

// NewTreeInternalCell builds an internal cell with hidden width hidden.
func NewTreeInternalCell(name string, hidden int, rng *tensor.RNG) *TreeInternalCell {
	c := &TreeInternalCell{
		name:   name,
		hidden: hidden,
		w:      tensor.XavierInit(rng, 2*hidden, 5*hidden),
		bias:   tensor.New(5 * hidden),
	}
	// Forget-gate bias 1 for both children.
	for j := hidden; j < 3*hidden; j++ {
		c.bias.Set(1, j)
	}
	c.typeKey = c.Def().TypeKey(c.Weights().Fingerprint())
	return c
}

// Name implements Cell.
func (c *TreeInternalCell) Name() string { return c.name }

// TypeKey implements Cell.
func (c *TreeInternalCell) TypeKey() string { return c.typeKey }

// InputNames implements Cell.
func (c *TreeInternalCell) InputNames() []string { return namesTreeIn }

// OutputNames implements Cell.
func (c *TreeInternalCell) OutputNames() []string { return namesHC }

// Hidden returns the hidden width.
func (c *TreeInternalCell) Hidden() int { return c.hidden }

// OutputWidths implements OutputSized.
func (c *TreeInternalCell) OutputWidths() map[string]int {
	return map[string]int{"h": c.hidden, "c": c.hidden}
}

// Step implements Cell as a thin allocating wrapper over StepInto.
func (c *TreeInternalCell) Step(inputs map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	b, err := batchOf(inputs, c.InputNames())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.name, err)
	}
	out := newOut(c, b)
	if err := c.StepInto(inputs, out, nil); err != nil {
		return nil, err
	}
	return out, nil
}

// StepInto implements IntoStepper.
func (c *TreeInternalCell) StepInto(inputs, out map[string]*tensor.Tensor, a *tensor.Arena) error {
	b, err := batchOf(inputs, c.InputNames())
	if err != nil {
		return fmt.Errorf("%s: %w", c.name, err)
	}
	h := c.hidden
	hOut, err := outBuf(out, c.name, "h", b, h)
	if err != nil {
		return err
	}
	cOut, err := outBuf(out, c.name, "c", b, h)
	if err != nil {
		return err
	}
	hl, cl, hr, cr := inputs["hl"], inputs["cl"], inputs["hr"], inputs["cr"]
	hlr := a.Get(b, 2*h)
	tensor.ConcatColsInto(hlr, hl, hr)
	pre := a.Get(b, 5*h)
	tensor.MatMulAddBiasInto(pre, hlr, c.w, c.bias)
	pd, cld, crd, hd, cd := pre.Data(), cl.Data(), cr.Data(), hOut.Data(), cOut.Data()
	for r := 0; r < b; r++ {
		p := pd[r*5*h : (r+1)*5*h]
		clr := cld[r*h : (r+1)*h]
		crr := crd[r*h : (r+1)*h]
		ho := hd[r*h : (r+1)*h]
		co := cd[r*h : (r+1)*h]
		tensor.SigmoidSlice(p[:4*h], p[:4*h])
		tensor.TanhSlice(p[4*h:], p[4*h:])
		i, fl, fr, o, u := p[:h], p[h:2*h], p[2*h:3*h], p[3*h:4*h], p[4*h:5*h]
		for j := range co {
			co[j] = i[j]*u[j] + fl[j]*clr[j] + fr[j]*crr[j]
		}
		tensor.TanhSlice(ho, co)
		for j, oj := range o {
			ho[j] *= oj
		}
	}
	return nil
}

// Def implements DefExporter.
func (c *TreeInternalCell) Def() *graph.CellDef {
	h := c.hidden
	return &graph.CellDef{
		Name: c.name,
		Inputs: []graph.TensorSpec{
			{Name: "hl", Shape: []int{h}},
			{Name: "cl", Shape: []int{h}},
			{Name: "hr", Shape: []int{h}},
			{Name: "cr", Shape: []int{h}},
		},
		Params: []graph.TensorSpec{
			{Name: "w", Shape: []int{2 * h, 5 * h}},
			{Name: "bias", Shape: []int{5 * h}},
		},
		Outputs: []string{"h_out", "c_out"},
		Nodes: []graph.NodeDef{
			{Name: "hlr", Op: graph.OpConcatCols, Inputs: []string{"hl", "hr"}},
			{Name: "mm", Op: graph.OpMatMul, Inputs: []string{"hlr", "w"}},
			{Name: "pre", Op: graph.OpAddBias, Inputs: []string{"mm", "bias"}},
			{Name: "pre_i", Op: graph.OpSliceCols, Inputs: []string{"pre"}, Attrs: map[string]int{"begin": 0, "end": h}},
			{Name: "pre_fl", Op: graph.OpSliceCols, Inputs: []string{"pre"}, Attrs: map[string]int{"begin": h, "end": 2 * h}},
			{Name: "pre_fr", Op: graph.OpSliceCols, Inputs: []string{"pre"}, Attrs: map[string]int{"begin": 2 * h, "end": 3 * h}},
			{Name: "pre_o", Op: graph.OpSliceCols, Inputs: []string{"pre"}, Attrs: map[string]int{"begin": 3 * h, "end": 4 * h}},
			{Name: "pre_u", Op: graph.OpSliceCols, Inputs: []string{"pre"}, Attrs: map[string]int{"begin": 4 * h, "end": 5 * h}},
			{Name: "gate_i", Op: graph.OpSigmoid, Inputs: []string{"pre_i"}},
			{Name: "gate_fl", Op: graph.OpSigmoid, Inputs: []string{"pre_fl"}},
			{Name: "gate_fr", Op: graph.OpSigmoid, Inputs: []string{"pre_fr"}},
			{Name: "gate_o", Op: graph.OpSigmoid, Inputs: []string{"pre_o"}},
			{Name: "gate_u", Op: graph.OpTanh, Inputs: []string{"pre_u"}},
			{Name: "written", Op: graph.OpMul, Inputs: []string{"gate_i", "gate_u"}},
			{Name: "keep_l", Op: graph.OpMul, Inputs: []string{"gate_fl", "cl"}},
			{Name: "keep_r", Op: graph.OpMul, Inputs: []string{"gate_fr", "cr"}},
			{Name: "keep", Op: graph.OpAdd, Inputs: []string{"keep_l", "keep_r"}},
			{Name: "c_out", Op: graph.OpAdd, Inputs: []string{"written", "keep"}},
			{Name: "c_act", Op: graph.OpTanh, Inputs: []string{"c_out"}},
			{Name: "h_out", Op: graph.OpMul, Inputs: []string{"gate_o", "c_act"}},
		},
	}
}

// Weights implements DefExporter.
func (c *TreeInternalCell) Weights() graph.Weights {
	return graph.Weights{"w": c.w, "bias": c.bias}
}
