package graph

import (
	"fmt"

	"batchmaker/internal/tensor"
)

// Weights binds parameter names of a cell definition to concrete tensors.
// All invocations of the same cell type share one Weights value — this is
// the parameter sharing that makes cellular batching possible.
type Weights map[string]*tensor.Tensor

// Fingerprint returns a cheap identity string for a weight set, used in
// TypeKey. Two weight sets get equal fingerprints only if they are the same
// tensors by content summary (shape plus a few probe values), which is
// sufficient to separate e.g. encoder weights from decoder weights.
func (w Weights) Fingerprint() string {
	s := ""
	names := make([]string, 0, len(w))
	for name := range w {
		names = append(names, name)
	}
	// Deterministic ordering.
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			if names[j] < names[i] {
				names[i], names[j] = names[j], names[i]
			}
		}
	}
	for _, name := range names {
		t := w[name]
		probe := float32(0)
		if t.Size() > 0 {
			probe = t.Data()[0] + t.Data()[t.Size()-1] + t.Data()[t.Size()/2]
		}
		s += fmt.Sprintf("%s%v@%x;", name, t.Shape(), uint32(probe*1e6))
	}
	return s
}

// Executor interprets a validated CellDef on real tensors. It is the
// reference execution engine; internal/rnn provides hand-fused fast paths
// whose results are tested against this interpreter.
type Executor struct {
	def   *CellDef
	order []string
	nodes map[string]NodeDef
	w     Weights
}

// NewExecutor validates the definition, checks that every declared parameter
// is present in w with the declared shape, and returns an executor.
func NewExecutor(def *CellDef, w Weights) (*Executor, error) {
	if err := def.Validate(); err != nil {
		return nil, err
	}
	for _, p := range def.Params {
		t, ok := w[p.Name]
		if !ok {
			return nil, fmt.Errorf("graph: cell %q: missing weight %q", def.Name, p.Name)
		}
		if !shapeEq(t.Shape(), p.Shape) {
			return nil, fmt.Errorf("graph: cell %q: weight %q has shape %v, want %v", def.Name, p.Name, t.Shape(), p.Shape)
		}
	}
	order, err := def.TopoSort()
	if err != nil {
		return nil, err
	}
	nodes := make(map[string]NodeDef, len(def.Nodes))
	for _, n := range def.Nodes {
		nodes[n.Name] = n
	}
	return &Executor{def: def, order: order, nodes: nodes, w: w}, nil
}

// Def returns the cell definition this executor runs.
func (e *Executor) Def() *CellDef { return e.def }

// TypeKey returns the cell-type identity for this executor's definition and
// weights.
func (e *Executor) TypeKey() string { return e.def.TypeKey(e.w.Fingerprint()) }

// Run executes the cell on a batch of inputs. Each input tensor must be
// [b, spec...]; all inputs must agree on b. It returns the named outputs.
func (e *Executor) Run(inputs map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	b := -1
	env := make(map[string]*tensor.Tensor, len(inputs)+len(e.w)+len(e.def.Nodes))
	for _, spec := range e.def.Inputs {
		t, ok := inputs[spec.Name]
		if !ok {
			return nil, fmt.Errorf("graph: cell %q: missing input %q", e.def.Name, spec.Name)
		}
		if t.Rank() != len(spec.Shape)+1 {
			return nil, fmt.Errorf("graph: cell %q: input %q has rank %d, want %d (batch + %v)",
				e.def.Name, spec.Name, t.Rank(), len(spec.Shape)+1, spec.Shape)
		}
		if b == -1 {
			b = t.Dim(0)
		} else if t.Dim(0) != b {
			return nil, fmt.Errorf("graph: cell %q: input %q batch %d != %d", e.def.Name, spec.Name, t.Dim(0), b)
		}
		for i, d := range spec.Shape {
			if t.Dim(i+1) != d {
				return nil, fmt.Errorf("graph: cell %q: input %q shape %v, want batch + %v", e.def.Name, spec.Name, t.Shape(), spec.Shape)
			}
		}
		env[spec.Name] = t
	}
	for name, t := range e.w {
		env[name] = t
	}
	for _, name := range e.order {
		n := e.nodes[name]
		out, err := evalNode(n, env)
		if err != nil {
			return nil, fmt.Errorf("graph: cell %q: %w", e.def.Name, err)
		}
		env[name] = out
	}
	outs := make(map[string]*tensor.Tensor, len(e.def.Outputs))
	for _, name := range e.def.Outputs {
		outs[name] = env[name]
	}
	return outs, nil
}

func evalNode(n NodeDef, env map[string]*tensor.Tensor) (*tensor.Tensor, error) {
	in := func(i int) *tensor.Tensor { return env[n.Inputs[i]] }
	switch n.Op {
	case OpMatMul:
		return tensor.MatMul(in(0), in(1)), nil
	case OpAddBias:
		x, bias := in(0), in(1)
		out := x.Clone()
		for i := 0; i < out.Dim(0); i++ {
			row := out.RowSlice(i)
			for j := range row {
				row[j] += bias.Data()[j]
			}
		}
		return out, nil
	case OpAdd:
		return tensor.Add(in(0), in(1)), nil
	case OpMul:
		return tensor.Mul(in(0), in(1)), nil
	case OpSub:
		return tensor.Sub(in(0), in(1)), nil
	case OpSigmoid:
		return tensor.Sigmoid(in(0)), nil
	case OpTanh:
		return tensor.Tanh(in(0)), nil
	case OpRelu:
		return tensor.Relu(in(0)), nil
	case OpSoftmax:
		return tensor.Softmax(in(0)), nil
	case OpConcatCols:
		ts := make([]*tensor.Tensor, len(n.Inputs))
		for i := range n.Inputs {
			ts[i] = in(i)
		}
		return tensor.ConcatCols(ts...), nil
	case OpSliceCols:
		begin, end := n.Attrs["begin"], n.Attrs["end"]
		src := in(0)
		cols := src.Dim(1)
		if end > cols {
			return nil, fmt.Errorf("node %q: slice end %d exceeds %d columns", n.Name, end, cols)
		}
		rows := src.Dim(0)
		out := tensor.New(rows, end-begin)
		for i := 0; i < rows; i++ {
			copy(out.RowSlice(i), src.RowSlice(i)[begin:end])
		}
		return out, nil
	case OpEmbed:
		ids := in(0)
		table := in(1)
		idx := make([]int, ids.Dim(0))
		for i := range idx {
			idx[i] = int(ids.At(i, 0))
			if idx[i] < 0 || idx[i] >= table.Dim(0) {
				return nil, fmt.Errorf("node %q: embedding id %d out of vocabulary [0,%d)", n.Name, idx[i], table.Dim(0))
			}
		}
		return tensor.GatherRows(table, idx), nil
	case OpArgmaxCast:
		logits := in(0)
		out := tensor.New(logits.Dim(0), 1)
		tensor.ArgmaxInto(out, logits)
		return out, nil
	}
	return nil, fmt.Errorf("node %q: unknown op %q", n.Name, n.Op)
}
