package cellgraph

import (
	"strings"
	"testing"

	"batchmaker/internal/rnn"
	"batchmaker/internal/tensor"
)

// TestPreallocMatchesAllocatingPath executes one LSTM chain three ways —
// rnn.Step per node into fresh tensors, the State's rows through
// OutputRow/Complete by hand, and ExecuteSequential — and requires
// bit-identical results.
func TestPreallocMatchesAllocatingPath(t *testing.T) {
	rng := tensor.NewRNG(71)
	lstm := rnn.NewLSTMCell("lstm", tEmbed, tHidden, rng)
	xs := tensor.RandUniform(rng, 1, 5, tEmbed)
	g, err := UnfoldChain(lstm, xs)
	if err != nil {
		t.Fatal(err)
	}
	// The allocating reference: each node's outputs are fresh tensors.
	outs := make([]map[string]*tensor.Tensor, g.NumCells())
	for i := range g.NumCells() { // a chain: ID order is dependency order
		in := map[string]*tensor.Tensor{}
		for j, name := range lstm.InputNames() {
			if b := g.Input(NodeID(i), j); b.From == NoNode {
				in[name] = b.Literal
			} else {
				in[name] = outs[b.From][lstm.OutputNames()[b.Out]]
			}
		}
		if outs[i], err = rnn.Step(lstm, in); err != nil {
			t.Fatal(err)
		}
	}
	want := map[string]*tensor.Tensor{}
	for _, r := range g.Results {
		want[r.Name] = outs[r.Node][lstm.OutputNames()[r.Out]]
	}

	s, err := NewState(g)
	if err != nil {
		t.Fatal(err)
	}
	for i := range g.NumCells() {
		id := NodeID(i)
		out := map[string]*tensor.Tensor{}
		for o, name := range lstm.OutputNames() {
			row := s.OutputRow(id, o)
			// Every output is read but the last node's c.
			if unread := i == g.NumCells()-1 && name == "c"; unread != (row == nil) {
				t.Fatalf("node %d output %q row = %v", id, name, row)
			}
			if row == nil {
				row = tensor.New(1, tHidden) // scratch the cell writes and nobody reads
			}
			out[name] = row
		}
		in := map[string]*tensor.Tensor{}
		for j, name := range lstm.InputNames() {
			in[name] = s.InputRow(id, j)
		}
		s.MarkIssued(id)
		if err := lstm.StepInto(in, out, nil); err != nil {
			t.Fatal(err)
		}
		s.Complete(id)
	}
	seq, err := ExecuteSequential(g)
	if err != nil {
		t.Fatal(err)
	}
	got := s.Results()
	for name, w := range want {
		if !got[name].Equal(w) {
			t.Fatalf("row path diverges from rnn.Step on result %q", name)
		}
		if !seq[name].Equal(w) {
			t.Fatalf("ExecuteSequential diverges from rnn.Step on result %q", name)
		}
	}
}

// TestPreallocCarvesOnlyReadRows: a translation's decoder steps carve h, c
// and word — the next step reads them, word is a result — but no logits row,
// which nothing reads; a graph that names logits as a result (as beam search
// does) gets its row.
func TestPreallocCarvesOnlyReadRows(t *testing.T) {
	_, enc, dec, _, _ := testCells(t)
	logits := OutputIndex(dec, "logits")
	for _, exposed := range []bool{false, true} {
		g, err := UnfoldSeq2Seq(enc, dec, []int{3, 4, 5}, 4)
		if err != nil {
			t.Fatal(err)
		}
		last := NodeID(g.NumCells() - 1)
		if exposed {
			g.Results = append(g.Results, OutputSpec{Name: "logits", Node: last, Out: logits})
		}
		s, err := NewState(g)
		if err != nil {
			t.Fatal(err)
		}
		for i := range g.NumCells() {
			id := NodeID(i)
			for o, name := range g.Cell(id).OutputNames() {
				want := true
				switch {
				case name == "logits":
					want = exposed && id == last
				case id == last:
					want = name == "word" // the final h and c feed nothing
				}
				if got := s.OutputRow(id, o) != nil; got != want {
					t.Errorf("exposed=%v node %d output %q: carved %v, want %v", exposed, id, name, got, want)
				}
			}
		}
	}
}

// TestNewStateRejectsBadWidths: a cell whose widths miss an output or are
// not positive cannot have its rows carved, so NewState (and with it
// ExecuteSequential) refuses the graph.
func TestNewStateRejectsBadWidths(t *testing.T) {
	for _, tc := range []struct {
		name   string
		widths map[string]int
	}{
		{"missing", map[string]int{"a": 1}},
		{"zero", map[string]int{"a": 1, "b": 0}},
		{"negative", map[string]int{"a": -1, "b": 1}},
	} {
		cell := &widthsCell{dagCell{key: "T", ins: []string{"x"}, outs: []string{"a", "b"}}, tc.widths}
		g := &Graph{}
		g.Add(cell, Lit(tensor.New(1, 1)))
		if _, err := NewState(g); err == nil || !strings.Contains(err.Error(), "positive width") {
			t.Errorf("%s: NewState err = %v, want a width error", tc.name, err)
		}
		if _, err := ExecuteSequential(g); err == nil {
			t.Errorf("%s: ExecuteSequential ran a cell with bad widths", tc.name)
		}
	}
}

// widthsCell is a dagCell that declares the given widths.
type widthsCell struct {
	dagCell
	widths map[string]int
}

func (c *widthsCell) OutputWidths() map[string]int { return c.widths }

// TestExecuteSequentialPerNodeZeroAlloc: the oracle allocates per request,
// not per node — a 40-step LSTM chain costs the same number of allocations
// as a 10-step one.
func TestExecuteSequentialPerNodeZeroAlloc(t *testing.T) {
	rng := tensor.NewRNG(73)
	lstm := rnn.NewLSTMCell("lstm", tEmbed, tHidden, rng)
	allocs := func(n int) float64 {
		g, err := UnfoldChain(lstm, tensor.RandUniform(rng, 1, n, tEmbed))
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := ExecuteSequential(g); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(10), allocs(40)
	t.Logf("ExecuteSequential allocations: %v for 10 steps, %v for 40", short, long)
	if long != short {
		t.Fatalf("ExecuteSequential allocates %v times for 40 steps, %v for 10: it allocates per node", long, short)
	}
}
