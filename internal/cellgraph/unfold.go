package cellgraph

import (
	"fmt"
	"strconv"

	"batchmaker/internal/rnn"
	"batchmaker/internal/tensor"
)

// The unfold functions below bind inputs by position and outputs by index,
// per the cells' documented name order: x or ids, then h, c (hl, cl, hr, cr
// for a tree's internal cell) in; h, c and, from the decoder, word out.
// TestUnfoldMatchesCellNameOrder pins that order.

// literalRows views each row of a rank-2 tensor as a [1, cols] literal. The
// views share one backing array and one shape, so a request's literals cost
// two allocations however long it is.
func literalRows(t *tensor.Tensor) []tensor.Tensor {
	shape := []int{1, t.Dim(1)}
	rows := make([]tensor.Tensor, t.Dim(0))
	for i := range rows {
		rows[i] = tensor.ViewOf(t.RowSlice(i), shape)
	}
	return rows
}

// idRows turns word ids into [1,1] literal rows, rejecting ids outside
// [0, vocab).
func idRows(ids []int, vocab int, what string) ([]tensor.Tensor, error) {
	vals := make([]float32, len(ids))
	for i, id := range ids {
		if id < 0 || id >= vocab {
			return nil, fmt.Errorf("cellgraph: %s id %d out of vocabulary [0,%d)", what, id, vocab)
		}
		vals[i] = float32(id)
	}
	return literalRows(tensor.FromSlice(vals, len(ids), 1)), nil
}

// addChain appends one node of cell per row of xs, each consuming its row,
// then "h" and "c": from the previous node (outputs 0 and 1), or from zero
// for the first. It returns the last node's ID.
func addChain(g *Graph, cell rnn.Cell, xs []tensor.Tensor, hidden int) NodeID {
	zero := Lit(tensor.New(1, hidden))
	prev := NoNode
	for t := range xs {
		if t == 0 {
			prev = g.Add(cell, Lit(&xs[t]), zero, zero)
		} else {
			prev = g.Add(cell, Lit(&xs[t]), Ref(prev, 0), Ref(prev, 1))
		}
	}
	return prev
}

// UnfoldChain expands a chain-structured RNN request (the paper's Figure 1)
// into a cell graph: one node per timestep, with h and c flowing forward and
// each step's x bound as a literal row of xs (shape [len, in]). The result
// is the final hidden state, named "h".
func UnfoldChain(cell *rnn.LSTMCell, xs *tensor.Tensor) (*Graph, error) {
	if xs.Rank() != 2 || xs.Dim(1) != cell.InDim() {
		return nil, fmt.Errorf("cellgraph: chain inputs must be [len, %d], got %v", cell.InDim(), xs.Shape())
	}
	steps := xs.Dim(0)
	if steps == 0 {
		return nil, fmt.Errorf("cellgraph: empty chain request")
	}
	g := NewGraph(steps, 3*steps, steps-1)
	last := addChain(g, cell, literalRows(xs), cell.Hidden())
	g.Results = []OutputSpec{{Name: "h", Node: last, Out: 0}}
	return g, nil
}

// UnfoldRecurrent expands a chain request for any recurrent cell (a cell
// whose non-"x" inputs are state carried from identically named outputs):
// plain LSTM, GRU, or a stacked LSTM. States start at zero; the results are
// the final node's states.
func UnfoldRecurrent(cell rnn.Recurrent, xs *tensor.Tensor) (*Graph, error) {
	if xs.Rank() != 2 || xs.Dim(1) != cell.XWidth() {
		return nil, fmt.Errorf("cellgraph: chain inputs must be [len, %d], got %v", cell.XWidth(), xs.Shape())
	}
	steps := xs.Dim(0)
	if steps == 0 {
		return nil, fmt.Errorf("cellgraph: empty chain request")
	}
	// Resolve each state input once: its zero literal for the first step,
	// and the output that carries it to the next.
	names, states := cell.InputNames(), cell.StateWidths()
	first := make([]Binding, len(names))
	carry := make([]int, len(names))
	for i, name := range names {
		if name == "x" {
			continue
		}
		w, ok := states[name]
		if carry[i] = OutputIndex(cell, name); !ok || carry[i] < 0 {
			return nil, fmt.Errorf("cellgraph: cell %s input %q is neither x nor a carried state", cell.Name(), name)
		}
		first[i] = Lit(tensor.New(1, w))
	}
	g := NewGraph(steps, steps*len(names), steps-1)
	rows := literalRows(xs)
	in := make([]Binding, len(names))
	for t := range rows {
		for i, name := range names {
			switch {
			case name == "x":
				in[i] = Lit(&rows[t])
			case t == 0:
				in[i] = first[i]
			default:
				in[i] = Ref(NodeID(t-1), carry[i])
			}
		}
		g.Add(cell, in...)
	}
	for i, name := range cell.OutputNames() {
		if _, ok := states[name]; ok {
			g.Results = append(g.Results, OutputSpec{Name: name, Node: NodeID(steps - 1), Out: i})
		}
	}
	return g, nil
}

// UnfoldChainIDs is UnfoldChain for id-based chains: one encoder-style cell
// per input word id.
func UnfoldChainIDs(cell *rnn.EncoderCell, ids []int) (*Graph, error) {
	if len(ids) == 0 {
		return nil, fmt.Errorf("cellgraph: empty chain request")
	}
	rows, err := idRows(ids, cell.Vocab(), "word")
	if err != nil {
		return nil, err
	}
	g := NewGraph(len(ids), 3*len(ids), len(ids)-1)
	last := addChain(g, cell, rows, cell.Hidden())
	g.Results = []OutputSpec{{Name: "h", Node: last, Out: 0}}
	return g, nil
}

// UnfoldSeq2Seq expands a translation request (the paper's Figure 12): an
// encoder chain over the source ids followed by a feed-previous decoder
// chain of decodeLen steps. The first decoder step consumes <go> and the
// encoder's final state; subsequent steps consume the previous step's
// emitted word. Results are the decoder outputs "word0".."word<n-1>".
//
// Deployed systems bound decoding length by input length plus a threshold;
// the paper's evaluation fixes it to the reference translation length, and
// callers here pass it explicitly the same way.
func UnfoldSeq2Seq(enc *rnn.EncoderCell, dec *rnn.DecoderCell, srcIDs []int, decodeLen int) (*Graph, error) {
	if len(srcIDs) == 0 {
		return nil, fmt.Errorf("cellgraph: empty source sentence")
	}
	if decodeLen <= 0 {
		return nil, fmt.Errorf("cellgraph: decode length must be positive, got %d", decodeLen)
	}
	if enc.Hidden() != dec.Hidden() {
		return nil, fmt.Errorf("cellgraph: encoder hidden %d != decoder hidden %d", enc.Hidden(), dec.Hidden())
	}
	rows, err := idRows(srcIDs, enc.Vocab(), "source")
	if err != nil {
		return nil, err
	}
	n := len(srcIDs) + decodeLen
	g := NewGraph(n, 3*n, n-1)
	prev := addChain(g, enc, rows, enc.Hidden())
	g.Results = make([]OutputSpec, decodeLen)
	for t := range g.Results {
		if t == 0 {
			goRow := tensor.FromSlice([]float32{float32(rnn.TokenGo)}, 1, 1)
			prev = g.Add(dec, Lit(goRow), Ref(prev, 0), Ref(prev, 1))
		} else {
			prev = g.Add(dec, Ref(prev, 2), Ref(prev, 0), Ref(prev, 1))
		}
		g.Results[t] = OutputSpec{Name: "word" + strconv.Itoa(t), Node: prev, Out: 2}
	}
	return g, nil
}

// Tree is a binary parse tree whose leaves carry word ids (the paper's
// Figure 2 input structure). Internal nodes have exactly two children.
type Tree struct {
	WordID      int // valid at leaves
	Left, Right *Tree
}

// IsLeaf reports whether t has no children.
func (t *Tree) IsLeaf() bool { return t.Left == nil && t.Right == nil }

// Leaves returns the number of leaves.
func (t *Tree) Leaves() int {
	if t.IsLeaf() {
		return 1
	}
	return t.Left.Leaves() + t.Right.Leaves()
}

// Depth returns the longest root-to-leaf path length in nodes.
func (t *Tree) Depth() int {
	if t.IsLeaf() {
		return 1
	}
	l, r := t.Left.Depth(), t.Right.Depth()
	if l > r {
		return l + 1
	}
	return r + 1
}

// Nodes returns the total node count.
func (t *Tree) Nodes() int {
	if t.IsLeaf() {
		return 1
	}
	return 1 + t.Left.Nodes() + t.Right.Nodes()
}

// Validate checks that every node has zero or two children and leaf ids are
// within [0, vocab).
func (t *Tree) Validate(vocab int) error {
	if t.IsLeaf() {
		if t.WordID < 0 || t.WordID >= vocab {
			return fmt.Errorf("cellgraph: leaf word id %d out of vocabulary [0,%d)", t.WordID, vocab)
		}
		return nil
	}
	if t.Left == nil || t.Right == nil {
		return fmt.Errorf("cellgraph: tree node must have zero or two children")
	}
	if err := t.Left.Validate(vocab); err != nil {
		return err
	}
	return t.Right.Validate(vocab)
}

// UnfoldTree expands a TreeLSTM request: one leaf cell per leaf, one
// internal cell per internal node, with child states flowing upward
// (Figure 2). The result is the root's hidden state, named "h".
func UnfoldTree(leaf *rnn.TreeLeafCell, internal *rnn.TreeInternalCell, tree *Tree) (*Graph, error) {
	if tree == nil {
		return nil, fmt.Errorf("cellgraph: nil tree")
	}
	if err := tree.Validate(leaf.Vocab()); err != nil {
		return nil, err
	}
	leaves := tree.Leaves()
	u := treeUnfold{
		g:    NewGraph(2*leaves-1, leaves+4*(leaves-1), 2*(leaves-1)),
		leaf: leaf, internal: internal,
		ids: literalRows(tensor.New(leaves, 1)),
	}
	root := u.add(tree)
	u.g.Results = []OutputSpec{{Name: "h", Node: root, Out: 0}}
	return u.g, nil
}

// treeUnfold carries UnfoldTree's post-order walk: children before parents,
// leaves numbered left to right into the shared id rows.
type treeUnfold struct {
	g        *Graph
	leaf     *rnn.TreeLeafCell
	internal *rnn.TreeInternalCell
	ids      []tensor.Tensor // the leaves' id rows not handed out yet
}

func (u *treeUnfold) add(t *Tree) NodeID {
	if t.IsLeaf() {
		row := &u.ids[0]
		u.ids = u.ids[1:]
		row.Data()[0] = float32(t.WordID)
		return u.g.Add(u.leaf, Lit(row))
	}
	l := u.add(t.Left)
	r := u.add(t.Right)
	return u.g.Add(u.internal, Ref(l, 0), Ref(l, 1), Ref(r, 0), Ref(r, 1))
}

// CompleteBinaryTree builds a complete binary tree with the given number of
// leaves (must be a power of two), used by the Figure 15 fixed-structure
// experiment. Leaf word ids cycle through [0, vocab).
func CompleteBinaryTree(leaves, vocab int) (*Tree, error) {
	if leaves <= 0 || leaves&(leaves-1) != 0 {
		return nil, fmt.Errorf("cellgraph: complete tree needs a power-of-two leaf count, got %d", leaves)
	}
	counter := 0
	var build func(n int) *Tree
	build = func(n int) *Tree {
		if n == 1 {
			t := &Tree{WordID: counter % vocab}
			counter++
			return t
		}
		return &Tree{Left: build(n / 2), Right: build(n / 2)}
	}
	return build(leaves), nil
}
