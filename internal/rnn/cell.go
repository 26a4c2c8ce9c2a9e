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

// Cell is a batched RNN computation unit: the one contract the serving
// path, the sequential oracle and the simulator step a cell through. A cell
// writes its outputs into rows the caller owns and draws every intermediate
// from the caller's arena, so a caller that reuses its buffers and arena
// performs zero heap allocations per step (§4.3: the worker gathers inputs
// into, and scatters outputs out of, buffers it owns). Implementations are
// safe for concurrent StepInto calls because a step never mutates the
// weights.
type Cell interface {
	// Name is a short human-readable identifier ("lstm", "decoder", ...).
	Name() string
	// TypeKey identifies the cell type: cells with equal keys have identical
	// subgraphs, shared weights and identically-shaped inputs and outputs,
	// and may be batched together (§3.1).
	TypeKey() string
	// InputNames lists the tensors a step expects. The order is part of the
	// cell's contract: cell graphs bind a node's inputs by position in it.
	// The result is read-only — built-in cells return the same backing
	// slice on every call — so callers must not append to, sort or
	// otherwise modify it.
	InputNames() []string
	// OutputNames lists the tensors a step produces; graph bindings name an
	// output by its index here. Read-only, like InputNames.
	OutputNames() []string
	// OutputWidths maps every OutputNames entry to its row width, a
	// positive constant of the cell. Callers size output rows with it
	// before the step runs (server admission carves a request's rows).
	OutputWidths() map[string]int
	// StepInto executes one batched invocation. Every input must have the
	// same leading batch dimension b; out[name] is a caller-provided [b,
	// width] buffer for every output, which must not alias any input and
	// is fully overwritten. Intermediates come from the arena; a nil arena
	// allocates them fresh.
	StepInto(inputs, out map[string]*tensor.Tensor, a *tensor.Arena) error
}

// IntoStepper is Cell under its earlier name, and OutputSized the one
// method it shared with Cell. Only the benchmark harness still names them;
// a change that may edit benchmark/ can drop both.
type (
	IntoStepper = Cell
	OutputSized interface{ OutputWidths() map[string]int }
)

// DefExporter is implemented by cells that can export their dataflow-graph
// definition and weights for the JSON user interface and for equivalence
// testing against the graph interpreter.
type DefExporter interface {
	Def() *graph.CellDef
	Weights() graph.Weights
}

// Step runs one batched invocation of cell into freshly allocated outputs:
// StepInto with a nil arena, for tests and examples that do not keep
// buffers.
func Step(cell Cell, inputs map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	b, err := batchOf(inputs, cell.InputNames())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cell.Name(), err)
	}
	widths := cell.OutputWidths()
	out := make(map[string]*tensor.Tensor, len(widths))
	for _, name := range cell.OutputNames() {
		out[name] = tensor.New(b, widths[name])
	}
	if err := cell.StepInto(inputs, out, nil); err != nil {
		return nil, err
	}
	return out, nil
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
// the positional form cell graphs address outputs by. It fails unless the
// widths cover every output with a positive value.
func OutputWidthsOf(cell Cell) ([]int, error) {
	byName := cell.OutputWidths()
	widths := make([]int, 0, len(byName))
	for _, name := range cell.OutputNames() {
		w, ok := byName[name]
		if !ok || w <= 0 {
			return nil, fmt.Errorf("rnn: %s: output %q has width %d, want a positive width", cell.Name(), name, w)
		}
		widths = append(widths, w)
	}
	return widths, nil
}

// outBuf fetches and shape-checks one caller-provided output buffer.
func outBuf(out map[string]*tensor.Tensor, cell, name string, b, w int) (*tensor.Tensor, error) {
	t := out[name]
	if t == nil || t.Rank() != 2 || t.Dim(0) != b || t.Dim(1) != w {
		return nil, fmt.Errorf("rnn: %s: output %q needs a [%d, %d] buffer", cell, name, b, w)
	}
	return t, nil
}

// Every built-in cell implements the contract.
var (
	_ Cell = (*LSTMCell)(nil)
	_ Cell = (*GRUCell)(nil)
	_ Cell = (*StackedLSTMCell)(nil)
	_ Cell = (*TreeLeafCell)(nil)
	_ Cell = (*TreeInternalCell)(nil)
	_ Cell = (*EncoderCell)(nil)
	_ Cell = (*DecoderCell)(nil)
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
