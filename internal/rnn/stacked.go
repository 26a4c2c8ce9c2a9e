package rnn

import (
	"fmt"

	"batchmaker/internal/graph"
	"batchmaker/internal/tensor"
)

// Recurrent is a cell whose inputs other than "x" are recurrent state,
// carried to the next invocation from identically named outputs. Chain
// unfolding (cellgraph.UnfoldRecurrent) works for any such cell.
type Recurrent interface {
	Cell
	// StateWidths maps each recurrent state name to its width. Every state
	// name appears in both InputNames and OutputNames.
	StateWidths() map[string]int
	// XWidth is the width of the per-step input "x".
	XWidth() int
}

// StackedLSTMCell stacks L LSTM layers into one cell: layer 0 consumes the
// step input x, and each higher layer consumes the hidden output of the
// layer below. The whole stack is a single batching unit — the paper's
// observation that "a complex cell such as LSTM not only contains many
// operators but also its own internal recursion" (§3.1) applied to depth.
//
// Inputs: "x" [b,in], "h0".."h<L-1>", "c0".."c<L-1>" (each [b,h]).
// Outputs: the new per-layer states under the same names.
type StackedLSTMCell struct {
	name    string
	layers  []*LSTMCell
	typeKey string
	// hNames/cNames cache the per-layer state names ("h0", "c0", ...) so the
	// hot path never calls fmt.Sprintf; inNames is "x" followed by outNames,
	// the states in layer order (h0, c0, h1, c1, ...). All are built once by
	// the constructor because they depend on the layer count.
	hNames, cNames    []string
	inNames, outNames []string
}

// NewStackedLSTMCell builds an L-layer stack with Xavier-initialized
// weights. Layer 0 has input width inDim; higher layers take the hidden
// width as input.
func NewStackedLSTMCell(name string, inDim, hidden, layers int, rng *tensor.RNG) *StackedLSTMCell {
	if layers <= 0 {
		panic(fmt.Sprintf("rnn: stacked LSTM needs at least one layer, got %d", layers))
	}
	c := &StackedLSTMCell{name: name}
	for l := 0; l < layers; l++ {
		in := inDim
		if l > 0 {
			in = hidden
		}
		c.layers = append(c.layers, NewLSTMCell(fmt.Sprintf("%s_l%d", name, l), in, hidden, rng))
		c.hNames = append(c.hNames, fmt.Sprintf("h%d", l))
		c.cNames = append(c.cNames, fmt.Sprintf("c%d", l))
	}
	c.inNames = []string{"x"}
	for l := range c.layers {
		c.inNames = append(c.inNames, c.hNames[l], c.cNames[l])
	}
	c.outNames = c.inNames[1:len(c.inNames):len(c.inNames)]
	c.typeKey = c.Def().TypeKey(c.Weights().Fingerprint())
	return c
}

// Name implements Cell.
func (c *StackedLSTMCell) Name() string { return c.name }

// TypeKey implements Cell.
func (c *StackedLSTMCell) TypeKey() string { return c.typeKey }

// Layers returns the stack depth.
func (c *StackedLSTMCell) Layers() int { return len(c.layers) }

// Hidden returns the hidden width.
func (c *StackedLSTMCell) Hidden() int { return c.layers[0].Hidden() }

// XWidth implements Recurrent.
func (c *StackedLSTMCell) XWidth() int { return c.layers[0].InDim() }

// StateWidths implements Recurrent.
func (c *StackedLSTMCell) StateWidths() map[string]int {
	return c.OutputWidths()
}

// InputNames implements Cell.
func (c *StackedLSTMCell) InputNames() []string { return c.inNames }

// OutputNames implements Cell.
func (c *StackedLSTMCell) OutputNames() []string { return c.outNames }

// OutputWidths implements OutputSized.
func (c *StackedLSTMCell) OutputWidths() map[string]int {
	m := make(map[string]int, 2*len(c.layers))
	for l := range c.layers {
		m[c.hNames[l]] = c.Hidden()
		m[c.cNames[l]] = c.Hidden()
	}
	return m
}

// Step implements Cell as a thin allocating wrapper over StepInto.
func (c *StackedLSTMCell) Step(inputs map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
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

// StepInto implements IntoStepper: layer l consumes the previous layer's new
// hidden state as its input, each layer running the shared LSTM core against
// its slice of the caller's output buffers.
func (c *StackedLSTMCell) StepInto(inputs, out map[string]*tensor.Tensor, a *tensor.Arena) error {
	b, err := batchOf(inputs, c.InputNames())
	if err != nil {
		return fmt.Errorf("%s: %w", c.name, err)
	}
	x := inputs["x"]
	for l, layer := range c.layers {
		if x.Dim(1) != layer.inDim {
			return fmt.Errorf("rnn: %s: layer %d input width %d, want %d", c.name, l, x.Dim(1), layer.inDim)
		}
		h, cc := inputs[c.hNames[l]], inputs[c.cNames[l]]
		if h.Dim(1) != layer.hidden || cc.Dim(1) != layer.hidden {
			return fmt.Errorf("rnn: %s: layer %d bad state widths h=%v c=%v", c.name, l, h.Shape(), cc.Shape())
		}
		hOut, err := outBuf(out, c.name, c.hNames[l], b, layer.hidden)
		if err != nil {
			return err
		}
		cOut, err := outBuf(out, c.name, c.cNames[l], b, layer.hidden)
		if err != nil {
			return err
		}
		layer.stepCore(x, h, cc, hOut, cOut, a)
		x = hOut
	}
	return nil
}

// Def implements DefExporter by composing the per-layer LSTM definitions
// with mangled node names.
func (c *StackedLSTMCell) Def() *graph.CellDef {
	def := &graph.CellDef{
		Name:   c.name,
		Inputs: []graph.TensorSpec{{Name: "x", Shape: []int{c.XWidth()}}},
	}
	for l := range c.layers {
		def.Inputs = append(def.Inputs,
			graph.TensorSpec{Name: fmt.Sprintf("h%d", l), Shape: []int{c.Hidden()}},
			graph.TensorSpec{Name: fmt.Sprintf("c%d", l), Shape: []int{c.Hidden()}},
		)
	}
	xName := "x"
	for l, layer := range c.layers {
		prefix := fmt.Sprintf("l%d_", l)
		inner := layer.Def()
		for _, p := range inner.Params {
			def.Params = append(def.Params, graph.TensorSpec{Name: prefix + p.Name, Shape: p.Shape})
		}
		rename := func(name string) string {
			switch name {
			case "x":
				return xName
			case "h":
				return fmt.Sprintf("h%d", l)
			case "c":
				return fmt.Sprintf("c%d", l)
			case "w", "bias":
				return prefix + name
			}
			return prefix + name
		}
		for _, n := range inner.Nodes {
			nn := graph.NodeDef{Name: prefix + n.Name, Op: n.Op, Attrs: n.Attrs}
			for _, in := range n.Inputs {
				nn.Inputs = append(nn.Inputs, rename(in))
			}
			def.Nodes = append(def.Nodes, nn)
		}
		def.Outputs = append(def.Outputs, prefix+"h_new", prefix+"c_new")
		xName = prefix + "h_new"
	}
	return def
}

// Weights implements DefExporter.
func (c *StackedLSTMCell) Weights() graph.Weights {
	w := make(graph.Weights, 2*len(c.layers))
	for l, layer := range c.layers {
		lw := layer.Weights()
		w[fmt.Sprintf("l%d_w", l)] = lw["w"]
		w[fmt.Sprintf("l%d_bias", l)] = lw["bias"]
	}
	return w
}

// Interface checks for the recurrent cells.
var (
	_ Recurrent = (*StackedLSTMCell)(nil)
)

// StateWidths implements Recurrent for the plain LSTM cell.
func (c *LSTMCell) StateWidths() map[string]int {
	return map[string]int{"h": c.hidden, "c": c.hidden}
}

// XWidth implements Recurrent for the plain LSTM cell.
func (c *LSTMCell) XWidth() int { return c.inDim }

// StateWidths implements Recurrent for the GRU cell.
func (c *GRUCell) StateWidths() map[string]int {
	return map[string]int{"h": c.hidden}
}

// XWidth implements Recurrent for the GRU cell.
func (c *GRUCell) XWidth() int { return c.inDim }

var (
	_ Recurrent = (*LSTMCell)(nil)
	_ Recurrent = (*GRUCell)(nil)
)
