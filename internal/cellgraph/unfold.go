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

// addIDs appends word ids as [1,1] literal rows, rejecting ids outside
// [0, vocab), and returns the index of the first.
func (g *Graph) addIDs(ids []int, vocab int, what string) (int32, error) {
	first := int32(len(g.lits))
	for _, id := range ids {
		if id < 0 || id >= vocab {
			return 0, fmt.Errorf("cellgraph: %s id %d out of vocabulary [0,%d)", what, id, vocab)
		}
		g.addLit(float32(id))
	}
	return first, nil
}

// addChain appends one node of cell per literal xs, xs+1, …, xs+steps-1,
// each consuming its literal, then "h" and "c": from the previous node
// (outputs 0 and 1), or from a zero row of width hidden for the first. It
// returns the last node's ID.
func (g *Graph) addChain(cell rnn.Cell, xs int32, steps, hidden int) NodeID {
	zero := litRef(g.zeroLit(hidden))
	prev := NoNode
	for t := range int32(steps) {
		h, c := zero, zero
		if t > 0 {
			h, c = ref(prev, 0), ref(prev, 1)
		}
		start := len(g.bindings)
		g.bindings = append(g.bindings, litRef(xs+t), h, c)
		prev = g.push(cell, start)
	}
	return prev
}

// addRows appends each row of a rank-2 tensor as a literal and returns the
// index of the first.
func (g *Graph) addRows(xs *tensor.Tensor) int32 {
	first := int32(len(g.lits))
	for t := range xs.Dim(0) {
		g.addLit(xs.RowSlice(t)...)
	}
	return first
}

// UnfoldChain expands a chain-structured RNN request (the paper's Figure 1)
// into a cell graph: one node per timestep, with h and c flowing forward and
// each step's x bound as a literal copy of its row of xs (shape [len, in]).
// The result is the final hidden state, named "h".
func UnfoldChain(cell *rnn.LSTMCell, xs *tensor.Tensor) (*Graph, error) {
	if xs.Rank() != 2 || xs.Dim(1) != cell.InDim() {
		return nil, fmt.Errorf("cellgraph: chain inputs must be [len, %d], got %v", cell.InDim(), xs.Shape())
	}
	steps := xs.Dim(0)
	if steps == 0 {
		return nil, fmt.Errorf("cellgraph: empty chain request")
	}
	g := NewGraph(steps, 3*steps, steps-1, steps+1, xs.Size()+cell.Hidden())
	last := g.addChain(cell, g.addRows(xs), steps, cell.Hidden())
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
	names, states := cell.InputNames(), cell.StateWidths()
	floats := xs.Size()
	for _, w := range states {
		floats += w
	}
	g := NewGraph(steps, steps*len(names), steps-1, steps+len(names), floats)
	x := g.addRows(xs)
	// Resolve each state input once: its zero literal for the first step,
	// and the output that carries it to the next.
	first := make([]bind, len(names))
	carry := make([]int, len(names))
	for i, name := range names {
		if name == "x" {
			continue
		}
		w, ok := states[name]
		if carry[i] = OutputIndex(cell, name); !ok || carry[i] < 0 {
			return nil, fmt.Errorf("cellgraph: cell %s input %q is neither x nor a carried state", cell.Name(), name)
		}
		first[i] = litRef(g.zeroLit(w))
	}
	for t := range steps {
		start := len(g.bindings)
		for i, name := range names {
			switch {
			case name == "x":
				g.bindings = append(g.bindings, litRef(x+int32(t)))
			case t == 0:
				g.bindings = append(g.bindings, first[i])
			default:
				g.bindings = append(g.bindings, ref(NodeID(t-1), carry[i]))
			}
		}
		g.push(cell, start)
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
	n := len(ids)
	g := NewGraph(n, 3*n, n-1, n+1, n+cell.Hidden())
	xs, err := g.addIDs(ids, cell.Vocab(), "word")
	if err != nil {
		return nil, err
	}
	last := g.addChain(cell, xs, n, cell.Hidden())
	g.Results = []OutputSpec{{Name: "h", Node: last, Out: 0}}
	return g, nil
}

// wordNames holds WordName's answers for the decode lengths requests
// commonly have (the benchmark clips them at 50); longer ones are built per
// call.
var wordNames = func() (names [64]string) {
	for t := range names {
		names[t] = "word" + strconv.Itoa(t)
	}
	return names
}()

// WordName returns the name of decoder step t's result in an UnfoldSeq2Seq
// graph: "word<t>".
func WordName(t int) string {
	if t >= 0 && t < len(wordNames) {
		return wordNames[t]
	}
	return "word" + strconv.Itoa(t)
}

// UnfoldSeq2Seq expands a translation request (the paper's Figure 12): an
// encoder chain over the source ids followed by a feed-previous decoder
// chain of decodeLen steps. The first decoder step consumes <go> and the
// encoder's final state; subsequent steps consume the previous step's
// emitted word. Results are the decoder outputs WordName(0) ..
// WordName(decodeLen-1).
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
	src := len(srcIDs)
	n := src + decodeLen
	g := NewGraph(n, 3*n, n-1, src+2, src+1+enc.Hidden())
	xs, err := g.addIDs(srcIDs, enc.Vocab(), "source")
	if err != nil {
		return nil, err
	}
	goRow := litRef(g.addLit(float32(rnn.TokenGo)))
	prev := g.addChain(enc, xs, src, enc.Hidden())
	g.Results = make([]OutputSpec, decodeLen)
	for t := range g.Results {
		x := goRow
		if t > 0 {
			x = ref(prev, 2)
		}
		start := len(g.bindings)
		g.bindings = append(g.bindings, x, ref(prev, 0), ref(prev, 1))
		prev = g.push(dec, start)
		g.Results[t] = OutputSpec{Name: WordName(t), Node: prev, Out: 2}
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
		g:    NewGraph(2*leaves-1, leaves+4*(leaves-1), 2*(leaves-1), leaves, leaves),
		leaf: leaf, internal: internal,
	}
	root := u.add(tree)
	u.g.Results = []OutputSpec{{Name: "h", Node: root, Out: 0}}
	return u.g, nil
}

// treeUnfold carries UnfoldTree's post-order walk: children before parents,
// each leaf's id a literal of its own.
type treeUnfold struct {
	g        *Graph
	leaf     *rnn.TreeLeafCell
	internal *rnn.TreeInternalCell
}

func (u *treeUnfold) add(t *Tree) NodeID {
	g := u.g
	start := len(g.bindings)
	if t.IsLeaf() {
		g.bindings = append(g.bindings, litRef(g.addLit(float32(t.WordID))))
		return g.push(u.leaf, start)
	}
	l := u.add(t.Left)
	r := u.add(t.Right)
	start = len(g.bindings)
	g.bindings = append(g.bindings, ref(l, 0), ref(l, 1), ref(r, 0), ref(r, 1))
	return g.push(u.internal, start)
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
