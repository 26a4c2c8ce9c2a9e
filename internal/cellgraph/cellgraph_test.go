package cellgraph

import (
	"slices"
	"strings"
	"testing"

	"batchmaker/internal/rnn"
	"batchmaker/internal/tensor"
)

const (
	tHidden = 8
	tEmbed  = 6
	tVocab  = 30
)

func testCells(t *testing.T) (*rnn.LSTMCell, *rnn.EncoderCell, *rnn.DecoderCell, *rnn.TreeLeafCell, *rnn.TreeInternalCell) {
	t.Helper()
	rng := tensor.NewRNG(99)
	return rnn.NewLSTMCell("lstm", tEmbed, tHidden, rng),
		rnn.NewEncoderCell("enc", tVocab, tEmbed, tHidden, rng),
		rnn.NewDecoderCell("dec", tVocab, tEmbed, tHidden, rng),
		rnn.NewTreeLeafCell("leaf", tVocab, tEmbed, tHidden, rng),
		rnn.NewTreeInternalCell("internal", tHidden, rng)
}

// countTypes returns the number of nodes per cell type key.
func countTypes(g *Graph) map[string]int {
	m := make(map[string]int)
	for i := range g.Nodes {
		m[g.Nodes[i].Cell.TypeKey()]++
	}
	return m
}

func chainGraph(t *testing.T, cell *rnn.LSTMCell, steps int) *Graph {
	t.Helper()
	rng := tensor.NewRNG(uint64(steps) + 1)
	xs := tensor.RandUniform(rng, 1, steps, tEmbed)
	g, err := UnfoldChain(cell, xs)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestUnfoldChainShape(t *testing.T) {
	lstm, _, _, _, _ := testCells(t)
	g := chainGraph(t, lstm, 5)
	if g.NumCells() != 5 {
		t.Fatalf("NumCells = %d, want 5", g.NumCells())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.CriticalPathLen() != 5 {
		t.Fatalf("critical path = %d, want 5", g.CriticalPathLen())
	}
	// First node has no deps; others depend on predecessor.
	if len(g.Nodes[0].Deps()) != 0 {
		t.Fatal("node 0 must have no deps")
	}
	if d := g.Nodes[3].Deps(); len(d) != 1 || d[0] != 2 {
		t.Fatalf("node 3 deps = %v", d)
	}
}

func TestUnfoldChainErrors(t *testing.T) {
	lstm, _, _, _, _ := testCells(t)
	if _, err := UnfoldChain(lstm, tensor.New(0, tEmbed)); err == nil {
		t.Fatal("want empty-chain error")
	}
	if _, err := UnfoldChain(lstm, tensor.New(3, tEmbed+1)); err == nil {
		t.Fatal("want width error")
	}
}

func TestUnfoldChainIDs(t *testing.T) {
	_, enc, _, _, _ := testCells(t)
	g, err := UnfoldChainIDs(enc, []int{3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumCells() != 3 {
		t.Fatalf("NumCells = %d", g.NumCells())
	}
	if _, err := UnfoldChainIDs(enc, nil); err == nil {
		t.Fatal("want empty error")
	}
	if _, err := UnfoldChainIDs(enc, []int{tVocab}); err == nil {
		t.Fatal("want vocab error")
	}
}

func TestUnfoldSeq2SeqStructure(t *testing.T) {
	_, enc, dec, _, _ := testCells(t)
	g, err := UnfoldSeq2Seq(enc, dec, []int{2, 3, 4}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumCells() != 7 {
		t.Fatalf("NumCells = %d, want 7", g.NumCells())
	}
	counts := countTypes(g)
	if counts[enc.TypeKey()] != 3 || counts[dec.TypeKey()] != 4 {
		t.Fatalf("type counts = %v", counts)
	}
	// First decoder node consumes <go> literal and encoder final state.
	// Inputs are positional: ids, h, c.
	n := g.Nodes[3]
	if n.Inputs[0].From != NoNode || n.Inputs[0].Literal.At(0, 0) != float32(rnn.TokenGo) {
		t.Fatal("first decoder step must consume <go>")
	}
	if n.Inputs[1].From != 2 {
		t.Fatalf("first decoder must read encoder state, reads node %d", n.Inputs[1].From)
	}
	// Later decoder steps feed the previous word back.
	n = g.Nodes[5]
	if n.Inputs[0].From != 4 || n.Inputs[0].Out != OutputIndex(dec, "word") {
		t.Fatal("decoder must feed previous word")
	}
	if len(g.Results) != 4 {
		t.Fatalf("results = %d, want 4", len(g.Results))
	}
}

func TestUnfoldSeq2SeqErrors(t *testing.T) {
	_, enc, dec, _, _ := testCells(t)
	if _, err := UnfoldSeq2Seq(enc, dec, nil, 3); err == nil {
		t.Fatal("want empty-source error")
	}
	if _, err := UnfoldSeq2Seq(enc, dec, []int{1}, 0); err == nil {
		t.Fatal("want decode-length error")
	}
	if _, err := UnfoldSeq2Seq(enc, dec, []int{tVocab + 1}, 2); err == nil {
		t.Fatal("want vocab error")
	}
	rng := tensor.NewRNG(5)
	dec2 := rnn.NewDecoderCell("dec2", tVocab, tEmbed, tHidden+1, rng)
	if _, err := UnfoldSeq2Seq(enc, dec2, []int{1}, 2); err == nil {
		t.Fatal("want hidden-mismatch error")
	}
}

func TestTreeHelpers(t *testing.T) {
	tree, err := CompleteBinaryTree(8, tVocab)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Leaves() != 8 || tree.Nodes() != 15 || tree.Depth() != 4 {
		t.Fatalf("leaves=%d nodes=%d depth=%d", tree.Leaves(), tree.Nodes(), tree.Depth())
	}
	if err := tree.Validate(tVocab); err != nil {
		t.Fatal(err)
	}
	if _, err := CompleteBinaryTree(6, tVocab); err == nil {
		t.Fatal("want power-of-two error")
	}
	bad := &Tree{Left: &Tree{WordID: 0}} // one child only
	if err := bad.Validate(tVocab); err == nil {
		t.Fatal("want arity error")
	}
	badID := &Tree{WordID: tVocab}
	if err := badID.Validate(tVocab); err == nil {
		t.Fatal("want vocab error")
	}
}

func TestUnfoldTreeStructure(t *testing.T) {
	_, _, _, leaf, internal := testCells(t)
	tree, _ := CompleteBinaryTree(4, tVocab)
	g, err := UnfoldTree(leaf, internal, tree)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumCells() != 7 {
		t.Fatalf("NumCells = %d, want 7", g.NumCells())
	}
	counts := countTypes(g)
	if counts[leaf.TypeKey()] != 4 || counts[internal.TypeKey()] != 3 {
		t.Fatalf("type counts = %v", counts)
	}
	if g.CriticalPathLen() != 3 {
		t.Fatalf("critical path = %d, want 3", g.CriticalPathLen())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// lstmNode appends one LSTM node reading h and c from the given bindings.
func lstmNode(g *Graph, cell rnn.Cell, h, c Binding) NodeID {
	return g.Add(cell, Lit(tensor.New(1, tEmbed)), h, c)
}

// TestValidateCatchesBadGraphs trips every check Validate makes, one bad
// graph each.
func TestValidateCatchesBadGraphs(t *testing.T) {
	lstm, _, _, _, _ := testCells(t)
	zero := Lit(tensor.New(1, tHidden))
	for _, tc := range []struct {
		name, want string
		build      func(g *Graph)
	}{
		{"sparse IDs", "dense indices", func(g *Graph) {
			lstmNode(g, lstm, zero, zero)
			g.Nodes[0].ID = 3
		}},
		{"nil cell", "has no cell", func(g *Graph) { g.Add(nil) }},
		{"missing binding", `missing binding for input "c"`, func(g *Graph) {
			g.Add(lstm, Lit(tensor.New(1, tEmbed)), zero)
		}},
		{"extra binding", "4 bindings for 3 inputs", func(g *Graph) {
			g.Add(lstm, Lit(tensor.New(1, tEmbed)), zero, zero, zero)
		}},
		{"literal without tensor", "literal binding without tensor", func(g *Graph) {
			lstmNode(g, lstm, zero, Lit(nil))
		}},
		{"literal shape", "literal must be a [1,w] row", func(g *Graph) {
			lstmNode(g, lstm, zero, Lit(tensor.New(2, tHidden)))
		}},
		{"unknown node", "unknown node 99", func(g *Graph) {
			lstmNode(g, lstm, Ref(99, 0), zero)
		}},
		{"unknown producer output", "does not produce", func(g *Graph) {
			first := lstmNode(g, lstm, zero, zero)
			lstmNode(g, lstm, Ref(first, 0), Ref(first, 2))
		}},
		{"cycle", "cycle", func(g *Graph) {
			lstmNode(g, lstm, Ref(1, 0), Ref(1, 1)) // 0 <-> 1
			lstmNode(g, lstm, Ref(0, 0), Ref(0, 1))
		}},
		{"self loop", "cycle", func(g *Graph) { lstmNode(g, lstm, Ref(0, 0), zero) }},
		{"result node", "unknown node 42", func(g *Graph) {
			lstmNode(g, lstm, zero, zero)
			g.Results = []OutputSpec{{Name: "x", Node: 42}}
		}},
		{"result output", "missing output 7", func(g *Graph) {
			lstmNode(g, lstm, zero, zero)
			g.Results = []OutputSpec{{Name: "x", Node: 0, Out: 7}}
		}},
		{"binding edited after Add", "modified after Add", func(g *Graph) {
			first := lstmNode(g, lstm, zero, zero)
			lstmNode(g, lstm, Ref(first, 0), Ref(first, 1))
			lstmNode(g, lstm, Ref(first, 0), Ref(first, 1))
			g.Nodes[2].Inputs[1] = Ref(1, 0) // the cached edge still says node 0
		}},
	} {
		g := &Graph{}
		tc.build(g)
		if err := g.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: want error containing %q, got %v", tc.name, tc.want, err)
		}
		if _, err := NewState(g); err == nil {
			t.Errorf("%s: NewState accepted the graph", tc.name)
		}
	}
	// A forward reference alone is not a cycle.
	g := &Graph{}
	lstmNode(g, lstm, Ref(1, 0), Ref(1, 1))
	lstmNode(g, lstm, zero, zero)
	if err := g.Validate(); err != nil {
		t.Fatalf("forward reference rejected: %v", err)
	}
	if order, err := g.TopoOrder(); err != nil || len(order) != 2 || order[0] != 1 {
		t.Fatalf("topo order = %v, %v; want [1 0]", order, err)
	}
	if g.CriticalPathLen() != 2 {
		t.Fatalf("critical path = %d, want 2", g.CriticalPathLen())
	}
}

// fillRows writes v into every row node id has, as a step would.
func fillRows(s *State, id NodeID, v float32) {
	for o := range s.Graph().Nodes[id].Cell.OutputNames() {
		if row := s.OutputRow(id, o); row != nil {
			for i := range row.Data() {
				row.Data()[i] = v
			}
		}
	}
}

func TestStateLifecycle(t *testing.T) {
	lstm, _, _, _, _ := testCells(t)
	g := chainGraph(t, lstm, 3)
	s, err := NewState(g)
	if err != nil {
		t.Fatal(err)
	}
	s.MarkIssued(0)
	if !s.Issued(0) || s.Done(0) {
		t.Fatal("node 0 must be issued and not done")
	}
	fillRows(s, 0, 3)
	s.Complete(0)
	if got := s.InputRow(1, 1); !got.Equal(tensor.Full(3, 1, tHidden)) {
		t.Fatalf("node 1 reads h = %v, want node 0's output", got)
	}
	if !s.Done(0) || s.Issued(0) {
		t.Fatal("node 0 must be done and not issued")
	}
	if s.Finished() {
		t.Fatal("not finished yet")
	}
	s.Complete(1)
	s.Complete(2)
	if !s.Finished() || s.Remaining() != 0 {
		t.Fatal("must be finished")
	}
	res := s.Results()
	if _, ok := res["h"]; !ok {
		t.Fatalf("results = %v", res)
	}
}

func TestStatePanicsOnMisuse(t *testing.T) {
	lstm, _, _, _, _ := testCells(t)
	g := chainGraph(t, lstm, 2)
	s, _ := NewState(g)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("MarkIssued of blocked node must panic")
			}
		}()
		s.MarkIssued(1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("InputRow of incomplete dep must panic")
			}
		}()
		s.InputRow(1, 1)
	}()
	s.Complete(0)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("double Complete must panic")
			}
		}()
		s.Complete(0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Results before finish must panic")
			}
		}()
		s.Results()
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("PreallocOutputs after execution began must panic")
			}
		}()
		s.PreallocOutputs([][]int{{tHidden, tHidden}})
	}()
}

func TestPartitionChainIsOneSubgraph(t *testing.T) {
	lstm, _, _, _, _ := testCells(t)
	g := chainGraph(t, lstm, 6)
	subs := Partition(g)
	if len(subs) != 1 {
		t.Fatalf("chain subgraphs = %d, want 1", len(subs))
	}
	if subs[0].Size() != 6 || len(subs[0].ExternalDeps) != 0 {
		t.Fatalf("subgraph = %+v", subs[0])
	}
}

func TestPartitionSeq2Seq(t *testing.T) {
	_, enc, dec, _, _ := testCells(t)
	g, err := UnfoldSeq2Seq(enc, dec, []int{1, 2, 3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	subs := Partition(g)
	if len(subs) != 2 {
		t.Fatalf("seq2seq subgraphs = %d, want 2 (encoder, decoder)", len(subs))
	}
	if subs[0].TypeKey != enc.TypeKey() || subs[0].Size() != 3 {
		t.Fatalf("encoder subgraph = %+v", subs[0])
	}
	if subs[1].TypeKey != dec.TypeKey() || subs[1].Size() != 2 {
		t.Fatalf("decoder subgraph = %+v", subs[1])
	}
	// The decoder subgraph's only external dep is the last encoder node.
	if len(subs[1].ExternalDeps) != 1 || subs[1].ExternalDeps[0] != 2 {
		t.Fatalf("decoder external deps = %v", subs[1].ExternalDeps)
	}
}

func TestPartitionTreeMatchesPaperExample(t *testing.T) {
	// §4.4: a complete binary tree with 16 leaves partitions into 17
	// subgraphs: 16 single-leaf subgraphs and one internal subgraph. (The
	// paper says "31 internal tree nodes", but 31 is the tree's *total*
	// node count; a 16-leaf complete binary tree has 15 internal nodes.)
	_, _, _, leaf, internal := testCells(t)
	tree, _ := CompleteBinaryTree(16, tVocab)
	g, err := UnfoldTree(leaf, internal, tree)
	if err != nil {
		t.Fatal(err)
	}
	subs := Partition(g)
	if len(subs) != 17 {
		t.Fatalf("tree subgraphs = %d, want 17", len(subs))
	}
	leafSubs, internalSubs := 0, 0
	for _, s := range subs {
		switch s.TypeKey {
		case leaf.TypeKey():
			leafSubs++
			if s.Size() != 1 {
				t.Fatalf("leaf subgraph size = %d", s.Size())
			}
			if len(s.ExternalDeps) != 0 {
				t.Fatal("leaf subgraph must have no external deps")
			}
		case internal.TypeKey():
			internalSubs++
			if s.Size() != 15 {
				t.Fatalf("internal subgraph size = %d, want 15", s.Size())
			}
			if len(s.ExternalDeps) != 16 {
				t.Fatalf("internal subgraph ext deps = %d, want 16", len(s.ExternalDeps))
			}
		default:
			t.Fatal("unexpected subgraph type")
		}
	}
	if leafSubs != 16 || internalSubs != 1 {
		t.Fatalf("leafSubs=%d internalSubs=%d", leafSubs, internalSubs)
	}
}

func TestSequentialVsLevelBatchedIdentical(t *testing.T) {
	lstm, enc, dec, leaf, internal := testCells(t)

	g1 := chainGraph(t, lstm, 7)
	r1, err := ExecuteSequential(g1)
	if err != nil {
		t.Fatal(err)
	}
	g1b := chainGraph(t, lstm, 7)
	r1b, err := ExecuteLevelBatched(g1b)
	if err != nil {
		t.Fatal(err)
	}
	if !r1["h"].AllClose(r1b["h"], 1e-6) {
		t.Fatal("chain: level-batched != sequential")
	}

	g2, _ := UnfoldSeq2Seq(enc, dec, []int{5, 6, 7, 8}, 5)
	r2, err := ExecuteSequential(g2)
	if err != nil {
		t.Fatal(err)
	}
	g2b, _ := UnfoldSeq2Seq(enc, dec, []int{5, 6, 7, 8}, 5)
	r2b, err := ExecuteLevelBatched(g2b)
	if err != nil {
		t.Fatal(err)
	}
	for name := range r2 {
		if !r2[name].Equal(r2b[name]) {
			t.Fatalf("seq2seq %s: level-batched != sequential", name)
		}
	}

	tree, _ := CompleteBinaryTree(8, tVocab)
	g3, _ := UnfoldTree(leaf, internal, tree)
	r3, err := ExecuteSequential(g3)
	if err != nil {
		t.Fatal(err)
	}
	g3b, _ := UnfoldTree(leaf, internal, tree)
	r3b, err := ExecuteLevelBatched(g3b)
	if err != nil {
		t.Fatal(err)
	}
	if !r3["h"].AllClose(r3b["h"], 1e-5) {
		t.Fatal("tree: level-batched != sequential")
	}
}

func TestRunBatchRejectsMixedTypes(t *testing.T) {
	_, enc, dec, _, _ := testCells(t)
	g, _ := UnfoldSeq2Seq(enc, dec, []int{1, 2}, 2)
	s, _ := NewState(g)
	// Force-complete encoder nodes so a decoder node is ready.
	s.Complete(0)
	s.Complete(1)
	// Node 2 (decoder step 0) is ready; mixing with... there is no other
	// ready type, so construct the error directly with nodes 2 and 3 after
	// completing 2's dependencies only partially is impossible — instead
	// check the type guard with an artificial pair from different graphs.
	err := RunBatch(s, []NodeID{2})
	if err != nil {
		t.Fatalf("single-type RunBatch failed: %v", err)
	}
	// After node 2 completes, node 3 is ready (decoder type). Pair it with
	// nothing invalid available; the mixed-type path is covered via a
	// dedicated two-type graph below.
	lstm := rnn.NewLSTMCell("x", tEmbed, tHidden, tensor.NewRNG(3))
	gm := &Graph{}
	gm.Add(lstm, Lit(tensor.New(1, tEmbed)), Lit(tensor.New(1, tHidden)), Lit(tensor.New(1, tHidden)))
	lstm2 := rnn.NewLSTMCell("y", tEmbed, tHidden, tensor.NewRNG(4))
	gm.Add(lstm2, Lit(tensor.New(1, tEmbed)), Lit(tensor.New(1, tHidden)), Lit(tensor.New(1, tHidden)))
	gm.Results = []OutputSpec{{Name: "h", Node: 0, Out: 0}}
	sm, err := NewState(gm)
	if err != nil {
		t.Fatal(err)
	}
	if err := RunBatch(sm, []NodeID{0, 1}); err == nil {
		t.Fatal("want mixed-type error")
	}
}

func TestRunBatchEmptyNoop(t *testing.T) {
	lstm, _, _, _, _ := testCells(t)
	g := chainGraph(t, lstm, 2)
	s, _ := NewState(g)
	if err := RunBatch(s, nil); err != nil {
		t.Fatal(err)
	}
}

// TestUnfoldMatchesCellNameOrder pins the name order the unfold functions
// bind by: inputs by position, outputs by index. A cell that reorders its
// names must change unfold.go with it, and this test says so.
func TestUnfoldMatchesCellNameOrder(t *testing.T) {
	lstm, enc, dec, leaf, internal := testCells(t)
	for _, tc := range []struct {
		cell    rnn.Cell
		in, out []string
	}{
		{lstm, []string{"x", "h", "c"}, []string{"h", "c"}},
		{enc, []string{"ids", "h", "c"}, []string{"h", "c"}},
		{dec, []string{"ids", "h", "c"}, []string{"h", "c", "word"}},
		{leaf, []string{"ids"}, []string{"h", "c"}},
		{internal, []string{"hl", "cl", "hr", "cr"}, []string{"h", "c"}},
	} {
		if got := tc.cell.InputNames(); !slices.Equal(got, tc.in) {
			t.Errorf("%s inputs %v, unfold binds them as %v", tc.cell.Name(), got, tc.in)
		}
		// Outputs unfold does not read (the decoder's logits) may follow.
		if got := tc.cell.OutputNames(); len(got) < len(tc.out) || !slices.Equal(got[:len(tc.out)], tc.out) {
			t.Errorf("%s outputs %v, unfold indexes them as %v", tc.cell.Name(), got, tc.out)
		}
	}
}
