package cellgraph

import (
	"fmt"
	"slices"

	"batchmaker/internal/rnn"
	"batchmaker/internal/tensor"
)

// State holds the execution progress of one request's cell graph: the
// produced output rows and which nodes have been issued and completed. It is
// the data half of the request processor's per-request bookkeeping (§4.2:
// "Request processor will track and update the dependencies of each node");
// the release logic lives in core.Tracker, which reads the same graph.
//
// Every output row of the request is one entry of a single backing array,
// addressed by (node, output index) through the numbering Graph.Add laid
// down, so neither admission nor the worker's gather and scatter look
// anything up by name. Every output something reads gets its row before
// execution (PreallocOutputs); a step fills a node's rows in place and
// Complete marks the node done.
//
// A State may serve request after request: Reset points it at the next
// graph and keeps every array it has, and Results hands out copies, so
// nothing a caller holds aliases the rows the next request overwrites.
//
// State is not safe for concurrent use; the owner (a worker under the
// request's lock, or a sequential executor) serializes access.
type State struct {
	g        *Graph
	rows     []tensor.Tensor // node n's output o is rows[n.out0+o]
	flags    []uint8         // per node: issued | done
	remained int

	// PreallocOutputs' arrays, kept across Reset: the float slab the rows
	// are carved from, the read marks, and the [1, w] shapes the rows share
	// (append-only, so a shape handed out once never changes).
	slab   []float32
	read   []bool
	shapes [][]int
}

const (
	flagIssued uint8 = 1 << iota
	flagDone
)

// NewState validates g and returns fresh execution state whose read outputs
// have their rows, sized by each cell type's OutputWidths. Holding a State
// is proof the graph was valid when it was built (core.TrackState relies on
// that to validate once per admission).
func NewState(g *Graph) (*State, error) {
	s, _, err := newState(g)
	return s, err
}

// newState is NewState that also returns the widths it carved the rows by,
// indexed like g.TypeKeys(): a sequential run asks each cell type for them
// once, not once per node.
func newState(g *Graph) (*State, [][]int, error) {
	s := new(State)
	if err := s.Reset(g); err != nil {
		return nil, nil, err
	}
	widths := make([][]int, len(g.keys))
	for i := range g.Nodes {
		if n := &g.Nodes[i]; widths[n.typ] == nil {
			w, err := rnn.OutputWidthsOf(n.Cell)
			if err != nil {
				return nil, nil, fmt.Errorf("cellgraph: node %d: %w", i, err)
			}
			widths[n.typ] = w
		}
	}
	s.PreallocOutputs(widths)
	return s, widths, nil
}

// Reset validates g and gives s fresh execution state for it, reusing the
// arrays s already has; PreallocOutputs then carves its rows. On error s is
// unchanged.
func (s *State) Reset(g *Graph) error {
	if err := g.Validate(); err != nil {
		return err
	}
	s.g = g
	s.rows = zeroed(s.rows, g.numRows())
	s.flags = zeroed(s.flags, len(g.Nodes))
	s.remained = len(g.Nodes)
	return nil
}

// zeroed returns n zero elements, in buf's array when it is large enough.
func zeroed[T any](buf []T, n int) []T {
	buf = slices.Grow(buf[:0], n)[:n]
	clear(buf)
	return buf
}

// Graph returns the underlying cell graph.
func (s *State) Graph() *Graph { return s.g }

// MarkIssued records that a node has been placed into a batched task. It
// panics if a dependency has not completed — the scheduler must never
// execute a node before its dependencies (tested invariant).
func (s *State) MarkIssued(id NodeID) {
	for _, d := range s.g.Nodes[id].deps {
		if s.flags[d]&flagDone == 0 {
			panic(fmt.Sprintf("cellgraph: issuing node %d with unmet dep %d", id, d))
		}
	}
	if s.flags[id]&flagDone != 0 {
		panic(fmt.Sprintf("cellgraph: issuing completed node %d", id))
	}
	s.flags[id] |= flagIssued
}

// Issued reports whether the node is currently in flight.
func (s *State) Issued(id NodeID) bool { return s.flags[id]&flagIssued != 0 }

// Done reports whether the node has completed.
func (s *State) Done(id NodeID) bool { return s.flags[id]&flagDone != 0 }

// InputRow returns input i of a node (in Cell.InputNames() order) as a
// [1, w] row, either the literal binding or the producing node's stored
// output. It panics if a referenced producer has not completed.
func (s *State) InputRow(id NodeID, i int) *tensor.Tensor {
	b := s.g.Nodes[id].Inputs[i]
	if b.From == NoNode {
		return b.Literal
	}
	if s.flags[b.From]&flagDone == 0 {
		panic(fmt.Sprintf("cellgraph: node %d reads output %d of incomplete node %d", id, b.Out, b.From))
	}
	return &s.rows[s.g.Nodes[b.From].out0+b.Out]
}

// PreallocOutputs carves a [1, w] output row for every output that some
// node's binding or some Results entry reads: one float slab for the whole
// request, and no allocation per row. Outputs nobody reads — a decoder
// step's logits, say — get no row, and a step writes them to scratch. It
// runs on the admission path (the caller's goroutine), moving the
// scatter-side allocations out of the worker hot loop: a worker fills the
// rows in place and calls Complete.
//
// widths[t] is the output row widths of the cell type Graph.TypeKeys()[t]
// names, in OutputNames() order, all positive (rnn.OutputWidthsOf checks
// them once per cell type). Calling PreallocOutputs after execution has
// begun is a programming error.
func (s *State) PreallocOutputs(widths [][]int) {
	s.read = zeroed(s.read, len(s.rows))
	read := s.read
	for i := range s.g.Nodes {
		for _, b := range s.g.Nodes[i].Inputs {
			if b.From != NoNode {
				read[s.g.Nodes[b.From].out0+b.Out] = true
			}
		}
	}
	for _, r := range s.g.Results {
		read[s.g.Nodes[r.Node].out0+r.Out] = true
	}
	floats := 0
	for i := range s.g.Nodes {
		n := &s.g.Nodes[i]
		if s.flags[i] != 0 {
			panic("cellgraph: PreallocOutputs called after execution began")
		}
		if len(widths[n.typ]) != numOutputs(n.Cell) {
			panic(fmt.Sprintf("cellgraph: node %d: %d output widths for %d outputs", i, len(widths[n.typ]), numOutputs(n.Cell)))
		}
		for o, w := range widths[n.typ] {
			if read[n.out0+o] {
				floats += w
			}
		}
	}
	s.slab = zeroed(s.slab, floats)
	slab := s.slab
	for i := range s.g.Nodes {
		n := &s.g.Nodes[i]
		for o, w := range widths[n.typ] {
			if read[n.out0+o] {
				s.rows[n.out0+o] = tensor.ViewOf(slab[:w:w], s.rowShape(w))
				slab = slab[w:]
			}
		}
	}
}

// rowShape returns the [1, w] shape every row of width w shares; a model
// has a few widths.
func (s *State) rowShape(w int) []int {
	for _, shape := range s.shapes {
		if shape[1] == w {
			return shape
		}
	}
	s.shapes = append(s.shapes, []int{1, w})
	return s.shapes[len(s.shapes)-1]
}

// OutputRow returns node id's row for output o, or nil when nothing reads
// that output. The step fills it in place before Complete.
func (s *State) OutputRow(id NodeID, o int) *tensor.Tensor {
	row := &s.rows[s.g.Nodes[id].out0+o]
	if row.Rank() == 0 {
		return nil
	}
	return row
}

// Complete marks a node done once its rows have been filled via OutputRow,
// so its consumers may read them.
func (s *State) Complete(id NodeID) {
	if s.flags[id]&flagDone != 0 {
		panic(fmt.Sprintf("cellgraph: node %d completed twice", id))
	}
	s.flags[id] = s.flags[id]&^flagIssued | flagDone
	s.remained--
}

// Finished reports whether every node has completed.
func (s *State) Finished() bool { return s.remained == 0 }

// Remaining returns the number of uncompleted nodes.
func (s *State) Remaining() int { return s.remained }

// Results copies the request's declared result rows into one fresh array
// and returns them by name — the one map a caller sees. The copies outlive
// s: it may be Reset for another request as soon as Results returns. It
// panics if the request has not finished.
func (s *State) Results() map[string]*tensor.Tensor {
	if !s.Finished() {
		panic("cellgraph: Results before completion")
	}
	n := 0
	for _, r := range s.g.Results {
		n += s.rows[s.g.Nodes[r.Node].out0+r.Out].Size()
	}
	floats := make([]float32, n)
	views := make([]tensor.Tensor, len(s.g.Results))
	out := make(map[string]*tensor.Tensor, len(s.g.Results))
	for i, r := range s.g.Results {
		row := &s.rows[s.g.Nodes[r.Node].out0+r.Out]
		w := copy(floats, row.Data())
		views[i] = tensor.ViewOf(floats[:w:w], row.Shape())
		floats = floats[w:]
		out[r.Name] = &views[i]
	}
	return out
}
