// Package cellgraph implements per-request unfolded cell graphs.
//
// When a request arrives, BatchMaker's request processor runs a user-defined
// unfolding function that expands the request into a coarse-grained dataflow
// graph whose nodes are cell invocations and whose edges carry tensors
// between cells (§3.1, §4.2). This package provides that graph, the standard
// unfolding functions for the paper's three applications (LSTM chains,
// Seq2Seq encode+decode, TreeLSTM trees), the partitioning of a cell graph
// into same-type subgraphs used by the scheduler (§4.3), and a sequential
// reference executor: the oracle the tests, the conformance suite and the
// benchmark check served results against.
//
// A Graph is a flat, pointer-free plan (DESIGN.md §3.1): nodes, bindings,
// dependency edges and literal rows each live in one backing array of int32s
// or floats, inputs are positional and outputs are named by index. Add
// derives everything later stages need, once; they only read it, so a
// finished Graph may be submitted any number of times, from any number of
// goroutines.
package cellgraph

import (
	"fmt"
	"slices"

	"batchmaker/internal/rnn"
	"batchmaker/internal/tensor"
)

// NodeID identifies a node within one request's cell graph.
type NodeID int

// NoNode is the absent-node sentinel used in literal bindings.
const NoNode NodeID = -1

// Binding says where one input of a node comes from: either a literal
// single-row tensor fixed at unfold time (word ids, initial zero state), or
// one output of another node in the same graph. It is what Add takes and
// Input returns; the graph stores it as two int32s.
type Binding struct {
	From    NodeID         // NoNode for literals
	Out     int            // index into the producer's Cell.OutputNames() (when From != NoNode)
	Literal *tensor.Tensor // [1, w] (when From == NoNode)
}

// Lit builds a literal binding. Add copies the row, so the tensor may be
// reused or changed afterwards.
func Lit(t *tensor.Tensor) Binding { return Binding{From: NoNode, Literal: t} }

// Ref builds a node-output binding; out indexes the producing cell's
// OutputNames (see OutputIndex).
func Ref(n NodeID, out int) Binding { return Binding{From: n, Out: out} }

// OutputIndex returns the position of the named output in
// cell.OutputNames(), or -1 when the cell does not produce it. Graph
// builders resolve names with it once per cell, not once per node.
func OutputIndex(cell rnn.Cell, name string) int {
	return slices.Index(cell.OutputNames(), name)
}

// node is one cell invocation: int32 ranges into the graph's arrays and no
// pointer, so a request's plan is a few flat arrays the garbage collector
// need not scan. A node's position is its NodeID.
type node struct {
	typ       int32 // index into Graph.keys and Graph.cells; -1 for a nil cell
	in, nIn   int32 // its bindings, Graph.bindings[in:in+nIn], in Cell.InputNames() order
	dep, nDep int32 // its distinct producers, ascending: Graph.edges[dep:dep+nDep]
	out0      int32 // index of output 0 in the request-wide output numbering
}

// bind is a stored Binding: output idx of node src, or, when src is NoNode,
// literal idx of the graph.
type bind struct{ src, idx int32 }

// lit is one literal row: w floats at off in Graph.slab.
type lit struct{ off, w int32 }

// OutputSpec names one tensor of the request's final result.
type OutputSpec struct {
	Name string
	Node NodeID
	Out  int // index into the node's Cell.OutputNames()
}

// Graph is a request's unfolded cell graph. Build one with Add (the zero
// value is ready to use; NewGraph presizes the backing arrays), then set
// Results. Nodes are read through Cell, Deps and Input; nothing edits a node
// after Add.
type Graph struct {
	Results []OutputSpec

	nodes    []node
	bindings []bind
	edges    []NodeID // every node's deps, back to back
	lits     []lit
	slab     []float32 // every literal's floats
	err      error     // the first literal Add could not store; Validate reports it

	// keys holds the TypeKey of each distinct cell type, in order of first
	// appearance, and cells the first cell of that type Add saw; the
	// buffers back them while the graph has at most two, as every unfolded
	// request does.
	keys    []string
	cells   []rnn.Cell
	keyBuf  [2]string
	cellBuf [2]rnn.Cell
}

// NewGraph returns an empty graph whose backing arrays have room for the
// given number of nodes, input bindings, dependency edges, literal rows and
// literal floats in all, so building a graph of known shape allocates a
// fixed handful of arrays. The sizes are hints: Add grows past them.
func NewGraph(nodes, bindings, edges, lits, floats int) *Graph {
	return &Graph{
		nodes:    make([]node, 0, nodes),
		bindings: make([]bind, 0, bindings),
		edges:    make([]NodeID, 0, edges),
		lits:     make([]lit, 0, lits),
		slab:     make([]float32, 0, floats),
	}
}

// Add appends one invocation of cell whose inputs, in Cell.InputNames()
// order, are bound as given, and returns its ID. Literal rows are copied
// into the graph. Add derives the node's dependency list and cell type
// here, so that nothing downstream has to rebuild them and a graph handed to
// several goroutines is complete before it is shared. Add does not
// validate; Validate does.
func (g *Graph) Add(cell rnn.Cell, inputs ...Binding) NodeID {
	start := len(g.bindings)
	for j, b := range inputs {
		if b.From != NoNode {
			g.bindings = append(g.bindings, ref(b.From, b.Out))
			continue
		}
		k := int32(-1)
		switch t := b.Literal; {
		case t == nil:
			g.fail(j, "literal binding without tensor")
		case t.Rank() != 2 || t.Dim(0) != 1:
			g.fail(j, fmt.Sprintf("literal must be a [1,w] row, got %v", t.Shape()))
		default:
			k = g.addLit(t.Data()...)
		}
		g.bindings = append(g.bindings, bind{int32(NoNode), k})
	}
	return g.push(cell, start)
}

// fail records, unless one is recorded already, that input j of the node
// being added has a literal Add could not store.
func (g *Graph) fail(j int, what string) {
	if g.err == nil {
		g.err = fmt.Errorf("cellgraph: node %d input %d: %s", len(g.nodes), j, what)
	}
}

// ref is a stored reference to output out of node n.
func ref(n NodeID, out int) bind { return bind{int32(n), int32(out)} }

// litRef is a stored reference to literal k.
func litRef(k int32) bind { return bind{int32(NoNode), k} }

// addLit appends one literal row holding vals and returns its index.
func (g *Graph) addLit(vals ...float32) int32 {
	g.lits = append(g.lits, lit{int32(len(g.slab)), int32(len(vals))})
	g.slab = append(g.slab, vals...)
	return int32(len(g.lits) - 1)
}

// zeroLit appends a literal row of w zeros and returns its index.
func (g *Graph) zeroLit(w int) int32 {
	g.lits = append(g.lits, lit{int32(len(g.slab)), int32(w)})
	g.slab = append(g.slab, make([]float32, w)...)
	return int32(len(g.lits) - 1)
}

// push appends a node of cell whose bindings are g.bindings[start:], and
// derives its type, dependency list and output numbering.
func (g *Graph) push(cell rnn.Cell, start int) NodeID {
	n := node{typ: g.typeOf(cell), in: int32(start), nIn: int32(len(g.bindings) - start), dep: int32(len(g.edges))}
	g.edges = appendDeps(g.edges, g.bindings[start:])
	n.nDep = int32(len(g.edges)) - n.dep
	n.out0 = int32(g.numRows())
	g.nodes = append(g.nodes, n)
	return NodeID(len(g.nodes) - 1)
}

// typeOf returns the position of cell's TypeKey in g.keys, adding it and
// the cell on its first appearance: cells with equal TypeKeys are one type,
// whether or not they are one value. A request has a few types, so a scan
// beats hashing the key. A nil cell has no type (Validate rejects it).
func (g *Graph) typeOf(cell rnn.Cell) int32 {
	if cell == nil {
		return -1
	}
	key := cell.TypeKey()
	if t := slices.Index(g.keys, key); t >= 0 {
		return int32(t)
	}
	if g.keys == nil {
		g.keys, g.cells = g.keyBuf[:0], g.cellBuf[:0]
	}
	g.keys = append(g.keys, key)
	g.cells = append(g.cells, cell)
	return int32(len(g.keys) - 1)
}

// TypeKeys returns the TypeKey of each distinct cell type of the graph, in
// order of first appearance. The slice is shared with the graph: read-only.
func (g *Graph) TypeKeys() []string { return g.keys }

// Cell returns the cell node id invokes (nil when it was added without
// one). The graph keeps one cell per type, the first Add saw.
func (g *Graph) Cell(id NodeID) rnn.Cell {
	if t := g.nodes[id].typ; t >= 0 {
		return g.cells[t]
	}
	return nil
}

// Deps returns the IDs of the nodes node id reads from, deduplicated and in
// ascending order. The slice is shared with the graph: read-only.
func (g *Graph) Deps(id NodeID) []NodeID {
	n := &g.nodes[id]
	return g.edges[n.dep : n.dep+n.nDep : n.dep+n.nDep]
}

// Input returns the binding of input i (in Cell.InputNames() order) of node
// id. A literal's tensor views the graph's copy of the row: read-only.
func (g *Graph) Input(id NodeID, i int) Binding {
	n := &g.nodes[id]
	b := g.bindings[n.in : n.in+n.nIn][i]
	if b.src != int32(NoNode) {
		return Ref(NodeID(b.src), int(b.idx))
	}
	return Lit(tensor.FromSlice(g.litRow(b.idx), 1, int(g.lits[b.idx].w)))
}

// litRow returns the floats of literal k.
func (g *Graph) litRow(k int32) []float32 {
	l := g.lits[k]
	return g.slab[l.off : l.off+l.w : l.off+l.w]
}

// appendDeps appends the distinct producers among inputs to dst in ascending
// order. A node has a handful of inputs, so insertion beats sorting.
func appendDeps(dst []NodeID, inputs []bind) []NodeID {
	start := len(dst)
	for _, b := range inputs {
		if b.src == int32(NoNode) {
			continue
		}
		from := NodeID(b.src)
		i := len(dst)
		for i > start && dst[i-1] > from {
			i--
		}
		if i > start && dst[i-1] == from {
			continue
		}
		dst = slices.Insert(dst, i, from)
	}
	return dst
}

func numOutputs(cell rnn.Cell) int {
	if cell == nil {
		return 0
	}
	return len(cell.OutputNames())
}

// numRows is the size of the request-wide output numbering.
func (g *Graph) numRows() int {
	if len(g.nodes) == 0 {
		return 0
	}
	last := len(g.nodes) - 1
	return int(g.nodes[last].out0) + numOutputs(g.Cell(NodeID(last)))
}

// Validate checks referential integrity and acyclicity. It only reads the
// graph, so concurrent calls on a shared graph are safe.
func (g *Graph) Validate() error {
	if g.err != nil {
		return g.err
	}
	forward := false
	for i, n := range g.nodes {
		cell := g.Cell(NodeID(i))
		if cell == nil {
			return fmt.Errorf("cellgraph: node %d has no cell", i)
		}
		names := cell.InputNames()
		if int(n.nIn) < len(names) {
			return fmt.Errorf("cellgraph: node %d (%s) missing binding for input %q", i, cell.Name(), names[n.nIn])
		}
		if int(n.nIn) > len(names) {
			return fmt.Errorf("cellgraph: node %d (%s) has %d bindings for %d inputs", i, cell.Name(), n.nIn, len(names))
		}
		for j, b := range g.bindings[n.in : n.in+n.nIn] {
			if b.src == int32(NoNode) {
				continue // Add stored the literal as a [1, w] row
			}
			if b.src < 0 || int(b.src) >= len(g.nodes) {
				return fmt.Errorf("cellgraph: node %d input %q references unknown node %d", i, names[j], b.src)
			}
			if b.idx < 0 || int(b.idx) >= numOutputs(g.Cell(NodeID(b.src))) {
				return fmt.Errorf("cellgraph: node %d input %q references output %d that node %d does not produce",
					i, names[j], b.idx, b.src)
			}
			forward = forward || int(b.src) >= i
		}
	}
	for _, r := range g.Results {
		if r.Node < 0 || int(r.Node) >= len(g.nodes) {
			return fmt.Errorf("cellgraph: result %q references unknown node %d", r.Name, r.Node)
		}
		if r.Out < 0 || r.Out >= numOutputs(g.Cell(r.Node)) {
			return fmt.Errorf("cellgraph: result %q references missing output %d of node %d", r.Name, r.Out, r.Node)
		}
	}
	if forward {
		// Unfolded graphs list producers before consumers, which cannot
		// form a cycle; only a graph with a forward reference needs the sort.
		if _, err := g.TopoOrder(); err != nil {
			return err
		}
	}
	return nil
}

// TopoOrder returns node IDs in dependency order, or an error on a cycle.
// Each pass places, in ID order, every node whose producers are placed: one
// pass for a graph that lists producers first (every unfolded one), one per
// forward reference otherwise.
func (g *Graph) TopoOrder() ([]NodeID, error) {
	order := make([]NodeID, 0, len(g.nodes))
	placed := make([]bool, len(g.nodes))
	unplaced := func(d NodeID) bool { return !placed[d] }
	for len(order) < len(g.nodes) {
		before := len(order)
		for i := range g.nodes {
			if !placed[i] && !slices.ContainsFunc(g.Deps(NodeID(i)), unplaced) {
				placed[i] = true
				order = append(order, NodeID(i))
			}
		}
		if len(order) == before {
			return nil, fmt.Errorf("cellgraph: graph contains a cycle")
		}
	}
	return order, nil
}

// NumCells returns the total number of cell invocations in the graph.
func (g *Graph) NumCells() int { return len(g.nodes) }

// CriticalPathLen returns the length (in cells) of the longest dependency
// chain in the graph — the minimum number of sequential batched steps the
// request needs.
func (g *Graph) CriticalPathLen() int {
	order, err := g.TopoOrder()
	if err != nil {
		return 0
	}
	depth := make([]int, len(g.nodes))
	longest := 0
	for _, id := range order {
		d := 1
		for _, dep := range g.Deps(id) {
			if depth[dep]+1 > d {
				d = depth[dep] + 1
			}
		}
		depth[id] = d
		if d > longest {
			longest = d
		}
	}
	return longest
}
