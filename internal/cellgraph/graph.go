// Package cellgraph implements per-request unfolded cell graphs.
//
// When a request arrives, BatchMaker's request processor runs a user-defined
// unfolding function that expands the request into a coarse-grained dataflow
// graph whose nodes are cell invocations and whose edges carry tensors
// between cells (§3.1, §4.2). This package provides that graph, the standard
// unfolding functions for the paper's three applications (LSTM chains,
// Seq2Seq encode+decode, TreeLSTM trees), the partitioning of a cell graph
// into same-type subgraphs used by the scheduler (§4.3), and a sequential
// reference executor used in tests and by the graph-batching baselines.
//
// A Graph is a flat plan (DESIGN.md §3): nodes, bindings and dependency edges
// each live in one backing array, inputs are positional and outputs are named
// by index. Add derives everything later stages need, once; they only read
// it, so a finished Graph may be submitted any number of times, from any
// number of goroutines.
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
// one output of another node in the same graph.
type Binding struct {
	From    NodeID         // NoNode for literals
	Out     int            // index into the producer's Cell.OutputNames() (when From != NoNode)
	Literal *tensor.Tensor // [1, w] (when From == NoNode)
}

// Lit builds a literal binding.
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

// Node is one cell invocation in a request's unfolded graph. Nodes are
// created by Graph.Add and are read-only afterwards.
type Node struct {
	ID   NodeID
	Cell rnn.Cell
	// Inputs binds the cell's inputs by position: Inputs[i] feeds
	// Cell.InputNames()[i].
	Inputs []Binding

	deps []NodeID // distinct producers, ascending; a slice of Graph.edges
	out0 int      // index of output 0 in the request-wide output numbering
	typ  int      // position of the node's TypeKey in Graph.TypeKeys
}

// Deps returns the IDs of the nodes this node reads from, deduplicated and
// in ascending order. The slice is shared with the graph: read-only.
func (n *Node) Deps() []NodeID { return n.deps }

// OutputSpec names one tensor of the request's final result.
type OutputSpec struct {
	Name string
	Node NodeID
	Out  int // index into the node's Cell.OutputNames()
}

// Graph is a request's unfolded cell graph. Build one with Add (the zero
// value is ready to use; NewGraph presizes the backing arrays), then set
// Results.
type Graph struct {
	Nodes   []Node
	Results []OutputSpec

	bindings []Binding // backing array of every Node.Inputs
	edges    []NodeID  // backing array of every Node.deps
	// keys holds the TypeKey of each distinct cell type, in order of first
	// appearance; keyBuf backs it while the graph has at most two, as every
	// unfolded request does.
	keys   []string
	keyBuf [2]string
}

// NewGraph returns an empty graph whose backing arrays have room for the
// given number of nodes, input bindings and dependency edges, so building a
// graph of known shape allocates three arrays in all. The sizes are hints:
// Add grows past them.
func NewGraph(nodes, bindings, edges int) *Graph {
	return &Graph{
		Nodes:    make([]Node, 0, nodes),
		bindings: make([]Binding, 0, bindings),
		edges:    make([]NodeID, 0, edges),
	}
}

// Add appends one invocation of cell whose inputs, in Cell.InputNames()
// order, are bound as given, and returns its ID. The bindings are copied.
// Add derives the node's dependency list and cell type here, so that
// nothing downstream has to rebuild them and a graph handed to several
// goroutines is complete before it is shared. Add does not validate;
// Validate does.
func (g *Graph) Add(cell rnn.Cell, inputs ...Binding) NodeID {
	n := Node{ID: NodeID(len(g.Nodes)), Cell: cell, typ: g.typeOf(cell)}
	start := len(g.bindings)
	g.bindings = append(g.bindings, inputs...)
	n.Inputs = g.bindings[start:len(g.bindings):len(g.bindings)]
	start = len(g.edges)
	g.edges = appendDeps(g.edges, n.Inputs)
	n.deps = g.edges[start:len(g.edges):len(g.edges)]
	if len(g.Nodes) > 0 {
		prev := &g.Nodes[len(g.Nodes)-1]
		n.out0 = prev.out0 + numOutputs(prev.Cell)
	}
	g.Nodes = append(g.Nodes, n)
	return n.ID
}

// typeOf returns the position of cell's TypeKey in g.keys, adding it on its
// first appearance: cells with equal TypeKeys are one type, whether or not
// they are one value. A request has a few types, so a scan beats hashing
// the key. A nil cell has no type (Validate rejects it).
func (g *Graph) typeOf(cell rnn.Cell) int {
	if cell == nil {
		return -1
	}
	key := cell.TypeKey()
	if t := slices.Index(g.keys, key); t >= 0 {
		return t
	}
	if g.keys == nil {
		g.keys = g.keyBuf[:0]
	}
	g.keys = append(g.keys, key)
	return len(g.keys) - 1
}

// TypeKeys returns the TypeKey of each distinct cell type of the graph, in
// order of first appearance. The slice is shared with the graph: read-only.
func (g *Graph) TypeKeys() []string { return g.keys }

// appendDeps appends the distinct producers among inputs to dst in ascending
// order. A node has a handful of inputs, so insertion beats sorting.
func appendDeps(dst []NodeID, inputs []Binding) []NodeID {
	start := len(dst)
	for _, b := range inputs {
		if b.From == NoNode {
			continue
		}
		i := len(dst)
		for i > start && dst[i-1] > b.From {
			i--
		}
		if i > start && dst[i-1] == b.From {
			continue
		}
		dst = slices.Insert(dst, i, b.From)
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
	if len(g.Nodes) == 0 {
		return 0
	}
	last := &g.Nodes[len(g.Nodes)-1]
	return last.out0 + numOutputs(last.Cell)
}

// Validate checks referential integrity and acyclicity. It only reads the
// graph, so concurrent calls on a shared graph are safe.
func (g *Graph) Validate() error {
	rows, forward := 0, false
	for i := range g.Nodes {
		n := &g.Nodes[i]
		if n.ID != NodeID(i) {
			return fmt.Errorf("cellgraph: node %d has ID %d; IDs must be dense indices", i, n.ID)
		}
		if n.Cell == nil {
			return fmt.Errorf("cellgraph: node %d has no cell", i)
		}
		names := n.Cell.InputNames()
		if len(n.Inputs) < len(names) {
			return fmt.Errorf("cellgraph: node %d (%s) missing binding for input %q", i, n.Cell.Name(), names[len(n.Inputs)])
		}
		if len(n.Inputs) > len(names) {
			return fmt.Errorf("cellgraph: node %d (%s) has %d bindings for %d inputs", i, n.Cell.Name(), len(n.Inputs), len(names))
		}
		for j, b := range n.Inputs {
			if b.From == NoNode {
				if b.Literal == nil {
					return fmt.Errorf("cellgraph: node %d input %q: literal binding without tensor", i, names[j])
				}
				if b.Literal.Rank() != 2 || b.Literal.Dim(0) != 1 {
					return fmt.Errorf("cellgraph: node %d input %q: literal must be a [1,w] row, got %v", i, names[j], b.Literal.Shape())
				}
				continue
			}
			if b.From < 0 || int(b.From) >= len(g.Nodes) {
				return fmt.Errorf("cellgraph: node %d input %q references unknown node %d", i, names[j], b.From)
			}
			if producer := g.Nodes[b.From].Cell; b.Out < 0 || b.Out >= numOutputs(producer) {
				return fmt.Errorf("cellgraph: node %d input %q references output %d that node %d does not produce",
					i, names[j], b.Out, b.From)
			}
			forward = forward || b.From >= n.ID
		}
		// What Add derived must still describe the node: a binding or cell
		// edited in place afterwards would otherwise go unnoticed downstream.
		var scratch [8]NodeID
		if n.out0 != rows || n.typ < 0 || n.typ >= len(g.keys) ||
			!slices.Equal(appendDeps(scratch[:0], n.Inputs), n.deps) {
			return fmt.Errorf("cellgraph: node %d was modified after Add; rebuild the graph", i)
		}
		rows += len(n.Cell.OutputNames())
	}
	for _, r := range g.Results {
		if r.Node < 0 || int(r.Node) >= len(g.Nodes) {
			return fmt.Errorf("cellgraph: result %q references unknown node %d", r.Name, r.Node)
		}
		if r.Out < 0 || r.Out >= numOutputs(g.Nodes[r.Node].Cell) {
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
	order := make([]NodeID, 0, len(g.Nodes))
	placed := make([]bool, len(g.Nodes))
	unplaced := func(d NodeID) bool { return !placed[d] }
	for len(order) < len(g.Nodes) {
		before := len(order)
		for i := range g.Nodes {
			if !placed[i] && !slices.ContainsFunc(g.Nodes[i].deps, unplaced) {
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
func (g *Graph) NumCells() int { return len(g.Nodes) }

// CriticalPathLen returns the length (in cells) of the longest dependency
// chain in the graph — the minimum number of sequential batched steps the
// request needs.
func (g *Graph) CriticalPathLen() int {
	order, err := g.TopoOrder()
	if err != nil {
		return 0
	}
	depth := make([]int, len(g.Nodes))
	longest := 0
	for _, id := range order {
		d := 1
		for _, dep := range g.Nodes[id].deps {
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
