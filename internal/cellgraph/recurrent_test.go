package cellgraph

import (
	"testing"

	"batchmaker/internal/rnn"
	"batchmaker/internal/tensor"
)

func TestUnfoldRecurrentLSTMMatchesUnfoldChain(t *testing.T) {
	rng := tensor.NewRNG(61)
	lstm := rnn.NewLSTMCell("lstm", tEmbed, tHidden, rng)
	xs := tensor.RandUniform(rng, 1, 6, tEmbed)

	g1, err := UnfoldChain(lstm, xs)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := ExecuteSequential(g1)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := UnfoldRecurrent(lstm, xs)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ExecuteSequential(g2)
	if err != nil {
		t.Fatal(err)
	}
	if !r1["h"].Equal(r2["h"]) {
		t.Fatal("UnfoldRecurrent(LSTM) diverges from UnfoldChain")
	}
	if _, ok := r2["c"]; !ok {
		t.Fatal("UnfoldRecurrent must expose all final states")
	}
}

func TestUnfoldRecurrentGRU(t *testing.T) {
	rng := tensor.NewRNG(62)
	gru := rnn.NewGRUCell("gru", tEmbed, tHidden, rng)
	xs := tensor.RandUniform(rng, 1, 5, tEmbed)
	g, err := UnfoldRecurrent(gru, xs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ExecuteSequential(g)
	if err != nil {
		t.Fatal(err)
	}
	// Manual loop.
	h := tensor.New(1, tHidden)
	for i := 0; i < 5; i++ {
		out, err := rnn.Step(gru, map[string]*tensor.Tensor{
			"x": tensor.SliceRows(xs, i, i+1), "h": h,
		})
		if err != nil {
			t.Fatal(err)
		}
		h = out["h"]
	}
	if !got["h"].AllClose(h, 1e-6) {
		t.Fatal("GRU chain diverges from manual loop")
	}
}

func TestUnfoldRecurrentStackedLSTM(t *testing.T) {
	rng := tensor.NewRNG(63)
	stack := rnn.NewStackedLSTMCell("stack", tEmbed, tHidden, 2, rng)
	xs := tensor.RandUniform(rng, 1, 4, tEmbed)
	g, err := UnfoldRecurrent(stack, xs)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumCells() != 4 || g.CriticalPathLen() != 4 {
		t.Fatalf("graph shape: cells=%d path=%d", g.NumCells(), g.CriticalPathLen())
	}
	seq, err := ExecuteSequential(g)
	if err != nil {
		t.Fatal(err)
	}
	// Manual loop through the stacked cell.
	state := map[string]*tensor.Tensor{
		"h0": tensor.New(1, tHidden), "c0": tensor.New(1, tHidden),
		"h1": tensor.New(1, tHidden), "c1": tensor.New(1, tHidden),
	}
	for i := 0; i < 4; i++ {
		in := map[string]*tensor.Tensor{"x": tensor.SliceRows(xs, i, i+1)}
		for k, v := range state {
			in[k] = v
		}
		out, err := rnn.Step(stack, in)
		if err != nil {
			t.Fatal(err)
		}
		state = out
	}
	for name, want := range state {
		if !seq[name].AllClose(want, 1e-6) {
			t.Fatalf("state %s diverges", name)
		}
	}
	// Level-batched execution agrees too.
	g2, _ := UnfoldRecurrent(stack, xs)
	lb, err := ExecuteLevelBatched(g2)
	if err != nil {
		t.Fatal(err)
	}
	for name := range state {
		if !lb[name].AllClose(seq[name], 1e-6) {
			t.Fatalf("level-batched %s diverges", name)
		}
	}
}

func TestUnfoldRecurrentErrors(t *testing.T) {
	rng := tensor.NewRNG(64)
	lstm := rnn.NewLSTMCell("lstm", tEmbed, tHidden, rng)
	if _, err := UnfoldRecurrent(lstm, tensor.New(0, tEmbed)); err == nil {
		t.Fatal("want empty error")
	}
	if _, err := UnfoldRecurrent(lstm, tensor.New(3, tEmbed+1)); err == nil {
		t.Fatal("want width error")
	}
}
