package cellgraph

import (
	"testing"

	"batchmaker/internal/rnn"
	"batchmaker/internal/tensor"
)

// TestPreallocMatchesAllocatingPath executes one LSTM chain twice — through
// Complete and through the preallocated OutputRow/CompletePrealloc path —
// and requires bit-identical results.
func TestPreallocMatchesAllocatingPath(t *testing.T) {
	rng := tensor.NewRNG(71)
	lstm := rnn.NewLSTMCell("lstm", tEmbed, tHidden, rng)
	xs := tensor.RandUniform(rng, 1, 5, tEmbed)
	g, err := UnfoldChain(lstm, xs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ExecuteSequential(g)
	if err != nil {
		t.Fatal(err)
	}

	s, err := NewState(g)
	if err != nil {
		t.Fatal(err)
	}
	s.PreallocOutputs(rnn.OutputWidthsOf)
	for !s.Finished() {
		for i := range g.Nodes { // a chain: ID order is dependency order
			id := NodeID(i)
			if !s.Preallocated(id) {
				t.Fatalf("node %d not preallocated despite OutputSized cell", id)
			}
			cell := g.Nodes[id].Cell.(rnn.IntoStepper)
			out := map[string]*tensor.Tensor{}
			for o, name := range cell.OutputNames() {
				row := s.OutputRow(id, o)
				// Every output is read but the last node's c.
				if unread := i == len(g.Nodes)-1 && name == "c"; unread != (row == nil) {
					t.Fatalf("node %d output %q row = %v", id, name, row)
				}
				if row == nil {
					row = tensor.New(1, tHidden) // scratch the cell writes and nobody reads
				}
				out[name] = row
			}
			in := map[string]*tensor.Tensor{}
			for j, name := range cell.InputNames() {
				in[name] = s.InputRow(id, j)
			}
			s.MarkIssued(id)
			if err := cell.StepInto(in, out, nil); err != nil {
				t.Fatal(err)
			}
			s.CompletePrealloc(id)
		}
	}
	got := s.Results()
	for name, w := range want {
		if !got[name].Equal(w) {
			t.Fatalf("prealloc path diverges on result %q", name)
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
		last := NodeID(len(g.Nodes) - 1)
		if exposed {
			g.Results = append(g.Results, OutputSpec{Name: "logits", Node: last, Out: logits})
		}
		s, err := NewState(g)
		if err != nil {
			t.Fatal(err)
		}
		s.PreallocOutputs(rnn.OutputWidthsOf)
		for i := range g.Nodes {
			id := NodeID(i)
			for o, name := range g.Nodes[i].Cell.OutputNames() {
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

// TestPreallocSkipsUnknownWidths: nodes whose cell widths are unknown keep
// the allocating path, and CompletePrealloc refuses them.
func TestPreallocSkipsUnknownWidths(t *testing.T) {
	rng := tensor.NewRNG(72)
	lstm := rnn.NewLSTMCell("lstm", tEmbed, tHidden, rng)
	xs := tensor.RandUniform(rng, 1, 2, tEmbed)
	g, err := UnfoldChain(lstm, xs)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewState(g)
	if err != nil {
		t.Fatal(err)
	}
	s.PreallocOutputs(func(rnn.Cell) []int { return nil })
	if s.Preallocated(0) {
		t.Fatal("node preallocated with nil widths")
	}
	if s.OutputRow(0, 0) != nil {
		t.Fatal("OutputRow must be nil without preallocation")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("CompletePrealloc on non-preallocated node must panic")
		}
	}()
	s.CompletePrealloc(0)
}
