package sim

import (
	"fmt"
	"time"

	"batchmaker/internal/cellgraph"
	"batchmaker/internal/core"
	"batchmaker/internal/device"
	"batchmaker/internal/rnn"
	"batchmaker/internal/tensor"
)

// TimingCell is a tensor-free cell used by the simulations: only the type
// key, input/output names, and cost curve matter. Step exists to satisfy
// rnn.Cell (and returns zero rows) but the simulator never calls it.
type TimingCell struct {
	name string
	key  string
	ins  []string
	outs []string
}

// NewTimingCell builds a timing cell.
func NewTimingCell(key string, ins, outs []string) *TimingCell {
	return &TimingCell{name: key, key: key, ins: ins, outs: outs}
}

// Name implements rnn.Cell.
func (c *TimingCell) Name() string { return c.name }

// TypeKey implements rnn.Cell.
func (c *TimingCell) TypeKey() string { return c.key }

// InputNames implements rnn.Cell.
func (c *TimingCell) InputNames() []string { return c.ins }

// OutputNames implements rnn.Cell.
func (c *TimingCell) OutputNames() []string { return c.outs }

// Step implements rnn.Cell; the simulator is timing-only so this is a stub
// that produces zero rows of width 1.
func (c *TimingCell) Step(inputs map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	b := -1
	for _, t := range inputs {
		b = t.Dim(0)
		break
	}
	if b < 0 {
		return nil, fmt.Errorf("sim: cell %s got no inputs", c.name)
	}
	out := make(map[string]*tensor.Tensor, len(c.outs))
	for _, o := range c.outs {
		out[o] = tensor.New(b, 1)
	}
	return out, nil
}

var _ rnn.Cell = (*TimingCell)(nil)

// sharedRow is the literal bound to every sim-graph input; the simulator
// never reads tensor data, so one shared row suffices.
var sharedRow = tensor.New(1, 1)

// RequestKind discriminates the workload shapes of the paper's three
// applications.
type RequestKind int

// Request kinds.
const (
	KindChain RequestKind = iota // LSTM over a sentence
	KindSeq2Seq
	KindTree
)

// Shape describes one request's structure (lengths only — the simulator is
// timing-only).
type Shape struct {
	Kind   RequestKind
	Len    int // chain length
	SrcLen int // seq2seq encode steps
	DstLen int // seq2seq decode steps
	Tree   *cellgraph.Tree
}

// Cells returns the total cell count of the request.
func (s Shape) Cells() int {
	switch s.Kind {
	case KindChain:
		return s.Len
	case KindSeq2Seq:
		return s.SrcLen + s.DstLen
	case KindTree:
		return s.Tree.Nodes()
	}
	return 0
}

// Model wires a request shape to cell types, cost curves and graph builders
// for one application (LSTM, Seq2Seq or TreeLSTM).
type Model struct {
	Name  string
	cells map[string]*TimingCell
	types []core.TypeConfig
	costs *device.CostModel
}

// Cell type keys used by the simulation models.
const (
	TypeLSTM     = "lstm"
	TypeEncoder  = "encoder"
	TypeDecoder  = "decoder"
	TypeLeaf     = "tree_leaf"
	TypeInternal = "tree_internal"
)

// NewLSTMModel builds the single-cell-type chain model (§7.2): max batch
// bmax, LSTM GPU cost curve.
func NewLSTMModel(bmax, minBatch int) *Model {
	m := &Model{Name: "lstm", cells: map[string]*TimingCell{}, costs: device.NewCostModel()}
	m.cells[TypeLSTM] = NewTimingCell(TypeLSTM, []string{"x", "h", "c"}, []string{"h", "c"})
	m.types = []core.TypeConfig{{Key: TypeLSTM, MaxBatch: bmax, MinBatch: minBatch}}
	m.costs.SetCurve(TypeLSTM, device.LSTMGPUCurve())
	return m
}

// NewSeq2SeqModel builds the encoder/decoder model (§7.4) with separate max
// batch sizes; decoders get higher priority (§4.3).
func NewSeq2SeqModel(bmaxEnc, bmaxDec, minBatch int) *Model {
	m := &Model{Name: "seq2seq", cells: map[string]*TimingCell{}, costs: device.NewCostModel()}
	m.cells[TypeEncoder] = NewTimingCell(TypeEncoder, []string{"ids", "h", "c"}, []string{"h", "c"})
	m.cells[TypeDecoder] = NewTimingCell(TypeDecoder, []string{"ids", "h", "c"}, []string{"h", "c", "word"})
	m.types = []core.TypeConfig{
		{Key: TypeEncoder, MaxBatch: bmaxEnc, MinBatch: minBatch, Priority: 0},
		{Key: TypeDecoder, MaxBatch: bmaxDec, MinBatch: minBatch, Priority: 1},
	}
	m.costs.SetCurve(TypeEncoder, device.LSTMGPUCurve())
	m.costs.SetCurve(TypeDecoder, device.DecoderGPUCurve())
	return m
}

// NewTreeModel builds the TreeLSTM model (§7.5); internal cells get higher
// priority than leaves (§4.3).
func NewTreeModel(bmax, minBatch int) *Model {
	m := &Model{Name: "treelstm", cells: map[string]*TimingCell{}, costs: device.NewCostModel()}
	m.cells[TypeLeaf] = NewTimingCell(TypeLeaf, []string{"ids"}, []string{"h", "c"})
	m.cells[TypeInternal] = NewTimingCell(TypeInternal, []string{"hl", "cl", "hr", "cr"}, []string{"h", "c"})
	m.types = []core.TypeConfig{
		{Key: TypeLeaf, MaxBatch: bmax, MinBatch: minBatch, Priority: 0},
		{Key: TypeInternal, MaxBatch: bmax, MinBatch: minBatch, Priority: 1},
	}
	m.costs.SetCurve(TypeLeaf, device.TreeLeafGPUCurve())
	m.costs.SetCurve(TypeInternal, device.LSTMGPUCurve())
	return m
}

// Types returns the scheduler type configuration.
func (m *Model) Types() []core.TypeConfig { return append([]core.TypeConfig(nil), m.types...) }

// WithTypes returns a copy of the model whose type configuration has been
// transformed by f (used by ablations, e.g. to flatten priorities).
func (m *Model) WithTypes(f func([]core.TypeConfig) []core.TypeConfig) *Model {
	c := *m
	c.types = f(m.Types())
	return &c
}

// Costs returns the cost model.
func (m *Model) Costs() *device.CostModel { return m.costs }

// KernelTime returns the batched kernel time for a type.
func (m *Model) KernelTime(typeKey string, b int) time.Duration {
	return m.costs.KernelTime(typeKey, b)
}

// BuildGraph unfolds a shape into a timing cell graph.
func (m *Model) BuildGraph(s Shape) (*cellgraph.Graph, error) {
	switch s.Kind {
	case KindChain:
		cell, ok := m.cells[TypeLSTM]
		if !ok {
			return nil, fmt.Errorf("sim: model %s cannot build chains", m.Name)
		}
		return buildChain(cell, s.Len), nil
	case KindSeq2Seq:
		enc, okE := m.cells[TypeEncoder]
		dec, okD := m.cells[TypeDecoder]
		if !okE || !okD {
			return nil, fmt.Errorf("sim: model %s cannot build seq2seq", m.Name)
		}
		return buildSeq2Seq(enc, dec, s.SrcLen, s.DstLen), nil
	case KindTree:
		leaf, okL := m.cells[TypeLeaf]
		internal, okI := m.cells[TypeInternal]
		if !okL || !okI {
			return nil, fmt.Errorf("sim: model %s cannot build trees", m.Name)
		}
		return buildTree(leaf, internal, s.Tree), nil
	}
	return nil, fmt.Errorf("sim: unknown request kind %d", s.Kind)
}

// The builders below mirror cellgraph's unfold functions on timing cells:
// inputs are positional (x or ids, then h, c — or hl, cl, hr, cr) and the
// cells' outputs are h, c and, for the decoder, word, in that order.

// addChain appends a chain of n nodes of cell after node prev (NoNode: the
// chain starts the graph) and returns its last node. A node reads h and c
// from the node before it, and a literal where there is none; with feedWord
// every step after the chain's first also takes the previous step's word.
func addChain(g *cellgraph.Graph, cell *TimingCell, n int, prev cellgraph.NodeID, feedWord bool) cellgraph.NodeID {
	for t := 0; t < n; t++ {
		ids, h, c := cellgraph.Lit(sharedRow), cellgraph.Lit(sharedRow), cellgraph.Lit(sharedRow)
		if prev != cellgraph.NoNode {
			h, c = cellgraph.Ref(prev, 0), cellgraph.Ref(prev, 1)
			if feedWord && t > 0 {
				ids = cellgraph.Ref(prev, 2)
			}
		}
		prev = g.Add(cell, ids, h, c)
	}
	return prev
}

func buildChain(cell *TimingCell, n int) *cellgraph.Graph {
	g := cellgraph.NewGraph(n, 3*n, n-1)
	last := addChain(g, cell, n, cellgraph.NoNode, false)
	g.Results = []cellgraph.OutputSpec{{Name: "h", Node: last}}
	return g
}

func buildSeq2Seq(enc, dec *TimingCell, srcLen, dstLen int) *cellgraph.Graph {
	n := srcLen + dstLen
	g := cellgraph.NewGraph(n, 3*n, n-1)
	last := addChain(g, enc, srcLen, cellgraph.NoNode, false)
	last = addChain(g, dec, dstLen, last, true)
	g.Results = []cellgraph.OutputSpec{{Name: "h", Node: last}}
	return g
}

func buildTree(leaf, internal *TimingCell, t *cellgraph.Tree) *cellgraph.Graph {
	leaves := t.Leaves()
	g := cellgraph.NewGraph(2*leaves-1, leaves+4*(leaves-1), 2*(leaves-1))
	var build func(n *cellgraph.Tree) cellgraph.NodeID
	build = func(n *cellgraph.Tree) cellgraph.NodeID {
		if n.IsLeaf() {
			return g.Add(leaf, cellgraph.Lit(sharedRow))
		}
		l := build(n.Left)
		r := build(n.Right)
		return g.Add(internal, cellgraph.Ref(l, 0), cellgraph.Ref(l, 1), cellgraph.Ref(r, 0), cellgraph.Ref(r, 1))
	}
	root := build(t)
	g.Results = []cellgraph.OutputSpec{{Name: "h", Node: root}}
	return g
}
