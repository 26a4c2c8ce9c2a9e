package core

import (
	"fmt"

	"batchmaker/internal/cellgraph"
	"batchmaker/internal/rnn"
	"batchmaker/internal/tensor"
)

// fakeCell is a tensor-free stand-in cell for scheduler tests: only its
// TypeKey and input/output names matter. Step produces zero rows so the
// graphs remain executable if a test wants to run them.
type fakeCell struct {
	name string
	key  string
	ins  []string
	outs []string
}

func (f *fakeCell) Name() string          { return f.name }
func (f *fakeCell) TypeKey() string       { return f.key }
func (f *fakeCell) InputNames() []string  { return f.ins }
func (f *fakeCell) OutputNames() []string { return f.outs }

func (f *fakeCell) Step(inputs map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	b := -1
	for _, t := range inputs {
		b = t.Dim(0)
		break
	}
	if b < 0 {
		return nil, fmt.Errorf("fake cell %s: no inputs", f.name)
	}
	out := make(map[string]*tensor.Tensor, len(f.outs))
	for _, o := range f.outs {
		out[o] = tensor.New(b, 1)
	}
	return out, nil
}

var _ rnn.Cell = (*fakeCell)(nil)

func newFakeCell(key string) *fakeCell {
	return &fakeCell{name: key, key: key, ins: []string{"x", "h"}, outs: []string{"h"}}
}

// fakeChain unfolds a chain of n nodes of the given cell.
func fakeChain(cell *fakeCell, n int) *cellgraph.Graph {
	g := &cellgraph.Graph{}
	row := cellgraph.Lit(tensor.New(1, 1))
	for t := 0; t < n; t++ {
		if t == 0 {
			g.Add(cell, row, row)
		} else {
			g.Add(cell, row, cellgraph.Ref(cellgraph.NodeID(t-1), 0))
		}
	}
	g.Results = []cellgraph.OutputSpec{{Name: "h", Node: cellgraph.NodeID(n - 1)}}
	return g
}

// fakeTwoPhase unfolds nA nodes of cellA followed by nB nodes of cellB, with
// the first B node depending on the last A node (a Seq2Seq-shaped graph).
func fakeTwoPhase(cellA, cellB *fakeCell, nA, nB int) *cellgraph.Graph {
	g := fakeChain(cellA, nA)
	row := cellgraph.Lit(tensor.New(1, 1))
	for t := 0; t < nB; t++ {
		g.Add(cellB, row, cellgraph.Ref(cellgraph.NodeID(nA+t-1), 0))
	}
	g.Results = []cellgraph.OutputSpec{{Name: "h", Node: cellgraph.NodeID(nA + nB - 1)}}
	return g
}

// fakeTree builds a complete binary tree with the given leaf count: leaves
// use leafCell, internal nodes use internalCell (inputs "hl","hr").
func fakeTree(leafCell, internalCell *fakeCell, leaves int) *cellgraph.Graph {
	g := &cellgraph.Graph{}
	row := cellgraph.Lit(tensor.New(1, 1))
	var build func(n int) cellgraph.NodeID
	build = func(n int) cellgraph.NodeID {
		if n == 1 {
			return g.Add(leafCell, row, row)
		}
		l := build(n / 2)
		r := build(n - n/2)
		return g.Add(internalCell, cellgraph.Ref(l, 0), cellgraph.Ref(r, 0))
	}
	root := build(leaves)
	g.Results = []cellgraph.OutputSpec{{Name: "h", Node: root}}
	return g
}

func newFakeInternalCell(key string) *fakeCell {
	return &fakeCell{name: key, key: key, ins: []string{"hl", "hr"}, outs: []string{"h"}}
}
