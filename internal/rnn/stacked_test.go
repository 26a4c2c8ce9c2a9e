package rnn

import (
	"testing"

	"batchmaker/internal/tensor"
)

func TestStackedLSTMMatchesManualLayering(t *testing.T) {
	rng := tensor.NewRNG(55)
	stack := NewStackedLSTMCell("stack", testEmbed, testHidden, 3, rng)
	in := randInputs(rng, 4, map[string]int{
		"x":  testEmbed,
		"h0": testHidden, "c0": testHidden,
		"h1": testHidden, "c1": testHidden,
		"h2": testHidden, "c2": testHidden,
	})
	out, err := Step(stack, in)
	if err != nil {
		t.Fatal(err)
	}
	// Manual: thread x through the three layers directly.
	x := in["x"]
	for l, layer := range stack.layers {
		hc, err := Step(layer, map[string]*tensor.Tensor{
			"x": x,
			"h": in[key("h", l)],
			"c": in[key("c", l)],
		})
		if err != nil {
			t.Fatal(err)
		}
		if !out[key("h", l)].Equal(hc["h"]) || !out[key("c", l)].Equal(hc["c"]) {
			t.Fatalf("layer %d state mismatch", l)
		}
		x = hc["h"]
	}
}

func key(prefix string, l int) string {
	return prefix + string(rune('0'+l))
}

func TestStackedLSTMInterpreterEquivalence(t *testing.T) {
	rng := tensor.NewRNG(56)
	stack := NewStackedLSTMCell("stack", testEmbed, testHidden, 2, rng)
	in := randInputs(rng, 3, map[string]int{
		"x":  testEmbed,
		"h0": testHidden, "c0": testHidden,
		"h1": testHidden, "c1": testHidden,
	})
	checkInterpreterEquivalence(t, stack, in, map[string]string{
		"h0": "l0_h_new", "c0": "l0_c_new",
		"h1": "l1_h_new", "c1": "l1_c_new",
	})
}

func TestStackedLSTMBatchingTransparency(t *testing.T) {
	rng := tensor.NewRNG(57)
	stack := NewStackedLSTMCell("stack", testEmbed, testHidden, 2, rng)
	in := randInputs(rng, 5, map[string]int{
		"x":  testEmbed,
		"h0": testHidden, "c0": testHidden,
		"h1": testHidden, "c1": testHidden,
	})
	checkBatchingTransparency(t, stack, in)
}

func TestStackedLSTMRecurrentInterface(t *testing.T) {
	rng := tensor.NewRNG(58)
	stack := NewStackedLSTMCell("stack", testEmbed, testHidden, 2, rng)
	sw := stack.StateWidths()
	if len(sw) != 4 || sw["h0"] != testHidden || sw["c1"] != testHidden {
		t.Fatalf("StateWidths = %v", sw)
	}
	if stack.XWidth() != testEmbed || stack.Layers() != 2 || stack.Hidden() != testHidden {
		t.Fatal("geometry accessors wrong")
	}
	// Plain LSTM and GRU also implement Recurrent.
	lstm := NewLSTMCell("l", testEmbed, testHidden, rng)
	if w := lstm.StateWidths(); w["h"] != testHidden || w["c"] != testHidden {
		t.Fatalf("lstm StateWidths = %v", w)
	}
	gru := NewGRUCell("g", testEmbed, testHidden, rng)
	if w := gru.StateWidths(); len(w) != 1 || w["h"] != testHidden {
		t.Fatalf("gru StateWidths = %v", w)
	}
}

func TestStackedLSTMSingleLayerEqualsLSTM(t *testing.T) {
	// A 1-layer stack must compute exactly what its inner LSTM computes.
	rng := tensor.NewRNG(59)
	stack := NewStackedLSTMCell("stack", testEmbed, testHidden, 1, rng)
	in := randInputs(rng, 2, map[string]int{"x": testEmbed, "h0": testHidden, "c0": testHidden})
	out, err := Step(stack, in)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := Step(stack.layers[0], map[string]*tensor.Tensor{
		"x": in["x"], "h": in["h0"], "c": in["c0"],
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out["h0"].Equal(inner["h"]) || !out["c0"].Equal(inner["c"]) {
		t.Fatal("1-layer stack diverges from plain LSTM")
	}
}

func TestStackedLSTMPanicsOnZeroLayers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	NewStackedLSTMCell("bad", 4, 4, 0, tensor.NewRNG(1))
}
