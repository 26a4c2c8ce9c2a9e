// Package rnn implements the RNN cells used by the paper's three evaluation
// applications — LSTM chains, Seq2Seq encoder/decoder, and TreeLSTM — plus a
// GRU cell as an extension.
//
// Each cell is a batched computation unit with shared weights: the "cell" of
// cellular batching (§3.1). A cell executes one recursion step for a batch of
// b independent requests; all tensors carry the batch dimension first. Every
// cell also exports its dataflow-graph definition (graph.CellDef) and weight
// map, which is the user interface the paper describes (§4.1): cells arrive
// as JSON dataflow graphs exported from a training framework.
package rnn

import (
	"fmt"

	"batchmaker/internal/graph"
	"batchmaker/internal/tensor"
)

// Cell is a batched RNN computation unit. Implementations are safe for
// concurrent Step calls because Step never mutates the weights.
type Cell interface {
	// Name is a short human-readable identifier ("lstm", "decoder", ...).
	Name() string
	// TypeKey identifies the cell type: cells with equal keys have identical
	// subgraphs, shared weights and identically-shaped inputs, and may be
	// batched together (§3.1).
	TypeKey() string
	// InputNames lists the tensors Step expects. The order is part of the
	// cell's contract: cell graphs bind a node's inputs by position in it.
	// The result is read-only — built-in cells return the same backing
	// slice on every call — so callers must not append to, sort or
	// otherwise modify it.
	InputNames() []string
	// OutputNames lists the tensors Step produces; graph bindings name an
	// output by its index here. Read-only, like InputNames.
	OutputNames() []string
	// Step executes one batched invocation. Every input must have the same
	// leading batch dimension. It returns freshly allocated outputs.
	Step(inputs map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error)
}

// DefExporter is implemented by cells that can export their dataflow-graph
// definition and weights for the JSON user interface and for equivalence
// testing against the graph interpreter.
type DefExporter interface {
	Def() *graph.CellDef
	Weights() graph.Weights
}

// IntoStepper is the allocation-free fast path every built-in cell
// implements. StepInto executes one batched invocation exactly like Step,
// but writes each output into the caller-provided out[name] buffer (rank-2,
// [b, width]) and draws every intermediate from the arena, so a caller that
// reuses its buffers and arena performs zero heap allocations per step.
//
// Contract: out buffers must not alias any input; each is fully
// overwritten. A nil arena is allowed (intermediates fall back to fresh
// allocations — this is how the allocating Step wrappers are implemented),
// so Step and StepInto share one code path and their results are
// bit-identical by construction.
type IntoStepper interface {
	Cell
	StepInto(inputs, out map[string]*tensor.Tensor, a *tensor.Arena) error
}

// OutputSized is implemented by cells whose output row widths are known
// statically. Callers (the server's admission path) use it to preallocate
// per-request output rows so the execution hot path never allocates.
type OutputSized interface {
	// OutputWidths maps every OutputNames entry to its row width.
	OutputWidths() map[string]int
}

// The name lists the built-in cells share. They are fixed by the cell type,
// so the accessors return these slices directly (no allocation per call);
// the Cell contract makes them read-only.
var (
	namesH          = []string{"h"}
	namesHC         = []string{"h", "c"}
	namesXH         = []string{"x", "h"}
	namesXHC        = []string{"x", "h", "c"}
	namesIds        = []string{"ids"}
	namesIdsHC      = []string{"ids", "h", "c"}
	namesTreeIn     = []string{"hl", "cl", "hr", "cr"}
	namesDecoderOut = []string{"h", "c", "word", "logits"}
)

// OutputWidthsOf returns a cell's output row widths in OutputNames order —
// the positional form cell graphs address outputs by — or nil when the cell
// does not declare them (OutputSized).
func OutputWidthsOf(cell Cell) []int {
	sized, ok := cell.(OutputSized)
	if !ok {
		return nil
	}
	byName := sized.OutputWidths()
	widths := make([]int, 0, len(byName))
	for _, name := range cell.OutputNames() {
		widths = append(widths, byName[name])
	}
	return widths
}

// outBuf fetches and shape-checks one caller-provided output buffer.
func outBuf(out map[string]*tensor.Tensor, cell, name string, b, w int) (*tensor.Tensor, error) {
	t := out[name]
	if t == nil || t.Rank() != 2 || t.Dim(0) != b || t.Dim(1) != w {
		return nil, fmt.Errorf("rnn: %s: output %q needs a [%d, %d] buffer", cell, name, b, w)
	}
	return t, nil
}

// newOut allocates the output buffers of an OutputSized cell for batch b —
// the bridge from the allocating Step interface to StepInto.
func newOut(c interface {
	Cell
	OutputSized
}, b int) map[string]*tensor.Tensor {
	widths := c.OutputWidths()
	out := make(map[string]*tensor.Tensor, len(widths))
	for _, name := range c.OutputNames() {
		out[name] = tensor.New(b, widths[name])
	}
	return out
}

// Every built-in cell implements both the fast path and static output
// sizing, so the server can run them allocation-free end to end.
var (
	_ IntoStepper = (*LSTMCell)(nil)
	_ IntoStepper = (*GRUCell)(nil)
	_ IntoStepper = (*StackedLSTMCell)(nil)
	_ IntoStepper = (*TreeLeafCell)(nil)
	_ IntoStepper = (*TreeInternalCell)(nil)
	_ IntoStepper = (*EncoderCell)(nil)
	_ IntoStepper = (*DecoderCell)(nil)

	_ OutputSized = (*LSTMCell)(nil)
	_ OutputSized = (*GRUCell)(nil)
	_ OutputSized = (*StackedLSTMCell)(nil)
	_ OutputSized = (*TreeLeafCell)(nil)
	_ OutputSized = (*TreeInternalCell)(nil)
	_ OutputSized = (*EncoderCell)(nil)
	_ OutputSized = (*DecoderCell)(nil)
)

func batchOf(inputs map[string]*tensor.Tensor, names []string) (int, error) {
	b := -1
	for _, n := range names {
		t, ok := inputs[n]
		if !ok {
			return 0, fmt.Errorf("rnn: missing input %q", n)
		}
		if b == -1 {
			b = t.Dim(0)
		} else if t.Dim(0) != b {
			return 0, fmt.Errorf("rnn: input %q batch %d != %d", n, t.Dim(0), b)
		}
	}
	return b, nil
}
