package server

import (
	"context"
	"fmt"
	"slices"

	"batchmaker/internal/cellgraph"
	"batchmaker/internal/rnn"
	"batchmaker/internal/tensor"
)

// GenerateSpec describes a dynamically unfolded generation request: a
// static prompt graph followed by feed-previous steps of one cell that
// continue until the cell emits a stop token or MaxSteps is reached.
//
// The paper's evaluation fixes the decode length up front (§7.4), noting
// that deployed systems instead decode until <eos> or a length bound; this
// is that deployed behavior. Each generated step is scheduled as a fresh
// ready cell, so concurrent generations batch with each other and with any
// other requests of the same cell type — the request "grows" inside the
// ongoing execution exactly as cellular batching intends.
type GenerateSpec struct {
	// Prompt is the static prefix (e.g. an encoder chain, or a decoder
	// chain teacher-forced over prompt tokens). It must be non-empty.
	Prompt *cellgraph.Graph
	// SeedNode is the prompt node whose outputs feed the first generated
	// step.
	SeedNode cellgraph.NodeID
	// Cell is the generation cell (e.g. a DecoderCell).
	Cell rnn.Cell
	// FeedBack maps each Cell input name to the output name it reads from
	// the previous step (and, on the first step, from SeedNode unless
	// overridden by FirstStep).
	FeedBack map[string]string
	// FirstStep optionally overrides inputs of the first generated step
	// with scalar literals (e.g. "ids" -> <go>).
	FirstStep map[string]float32
	// StopOutput is the Cell output checked against StopToken ("word").
	StopOutput string
	// StopToken ends generation when emitted (it is included in the
	// returned sequence).
	StopToken float32
	// MaxSteps bounds generation.
	MaxSteps int
}

func (spec *GenerateSpec) validate(s *Server) error {
	if spec.Prompt == nil || len(spec.Prompt.Nodes) == 0 {
		return fmt.Errorf("server: generate: empty prompt")
	}
	if spec.Cell == nil {
		return fmt.Errorf("server: generate: nil cell")
	}
	if _, ok := s.cells[spec.Cell.TypeKey()]; !ok {
		return fmt.Errorf("server: generate: cell type %q not registered", spec.Cell.TypeKey())
	}
	if spec.MaxSteps <= 0 {
		return fmt.Errorf("server: generate: MaxSteps must be positive")
	}
	if spec.SeedNode < 0 || int(spec.SeedNode) >= len(spec.Prompt.Nodes) {
		return fmt.Errorf("server: generate: seed node %d out of range", spec.SeedNode)
	}
	outs := spec.Cell.OutputNames()
	if !slices.Contains(outs, spec.StopOutput) {
		return fmt.Errorf("server: generate: cell has no output %q", spec.StopOutput)
	}
	seedOuts := spec.Prompt.Nodes[spec.SeedNode].Cell.OutputNames()
	for _, in := range spec.Cell.InputNames() {
		src, ok := spec.FeedBack[in]
		if !ok {
			return fmt.Errorf("server: generate: no feedback mapping for input %q", in)
		}
		if !slices.Contains(outs, src) {
			return fmt.Errorf("server: generate: feedback source %q is not a cell output", src)
		}
		if _, lit := spec.FirstStep[in]; !lit && !slices.Contains(seedOuts, src) {
			return fmt.Errorf("server: generate: seed node does not produce %q needed by input %q (add a FirstStep literal)", src, in)
		}
	}
	return nil
}

// Generate runs the prompt, then unfolds feed-previous steps one cell at a
// time until the stop token or MaxSteps, returning the emitted StopOutput
// values (including the stop token when it terminates generation).
func (s *Server) Generate(ctx context.Context, spec GenerateSpec) ([]float32, error) {
	// validate only reads the immutable cell registry; no lock needed.
	if err := spec.validate(s); err != nil {
		return nil, err
	}

	// Run the prompt, exposing the seed node's outputs as results. Work on
	// a shallow copy so the caller's graph is not mutated.
	prompt := &cellgraph.Graph{
		Nodes:   spec.Prompt.Nodes,
		Results: append([]cellgraph.OutputSpec(nil), spec.Prompt.Results...),
	}
	seedCell := prompt.Nodes[spec.SeedNode].Cell
	for o, out := range seedCell.OutputNames() {
		prompt.Results = append(prompt.Results, cellgraph.OutputSpec{
			Name: "__gen_" + out, Node: spec.SeedNode, Out: o,
		})
	}
	promptOut, err := s.Submit(ctx, prompt)
	if err != nil {
		return nil, err
	}

	prev := make(map[string]*tensor.Tensor)
	for _, out := range seedCell.OutputNames() {
		prev[out] = promptOut["__gen_"+out]
	}

	// Every step is one node whose results are all of the cell's outputs.
	stepResults := make([]cellgraph.OutputSpec, len(spec.Cell.OutputNames()))
	for o, out := range spec.Cell.OutputNames() {
		stepResults[o] = cellgraph.OutputSpec{Name: out, Out: o}
	}
	inputs := make([]cellgraph.Binding, len(spec.Cell.InputNames()))
	var emitted []float32
	for step := 0; step < spec.MaxSteps; step++ {
		for i, in := range spec.Cell.InputNames() {
			if lit, ok := spec.FirstStep[in]; ok && step == 0 {
				inputs[i] = cellgraph.Lit(tensor.FromSlice([]float32{lit}, 1, 1))
			} else {
				inputs[i] = cellgraph.Lit(prev[spec.FeedBack[in]])
			}
		}
		g := &cellgraph.Graph{Results: stepResults}
		g.Add(spec.Cell, inputs...)
		stepOut, err := s.Submit(ctx, g)
		if err != nil {
			return emitted, err
		}
		prev = stepOut
		v := stepOut[spec.StopOutput].At(0, 0)
		emitted = append(emitted, v)
		if v == spec.StopToken {
			break
		}
	}
	return emitted, nil
}
