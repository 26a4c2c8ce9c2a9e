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
				if row == nil || row.Dim(0) != 1 {
					t.Fatalf("node %d output %q row = %v", id, name, row)
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
