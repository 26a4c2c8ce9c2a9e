package server

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"batchmaker/internal/cellgraph"
	"batchmaker/internal/rnn"
	"batchmaker/internal/tensor"
)

// counterCell is a deterministic generation cell for tests: it emits
// word = (ids + 1) mod modulus and threads h through unchanged.
type counterCell struct {
	modulus int
}

func (c *counterCell) Name() string          { return "counter" }
func (c *counterCell) TypeKey() string       { return fmt.Sprintf("counter-%d", c.modulus) }
func (c *counterCell) InputNames() []string  { return []string{"ids", "h"} }
func (c *counterCell) OutputNames() []string { return []string{"word", "h"} }

func (c *counterCell) OutputWidths() map[string]int {
	return map[string]int{"word": 1, "h": 1}
}

func (c *counterCell) StepInto(inputs, out map[string]*tensor.Tensor, _ *tensor.Arena) error {
	ids := inputs["ids"]
	for i := 0; i < ids.Dim(0); i++ {
		out["word"].Set(float32((int(ids.At(i, 0))+1)%c.modulus), i, 0)
	}
	copy(out["h"].Data(), inputs["h"].Data())
	return nil
}

var _ rnn.Cell = (*counterCell)(nil)

func counterPrompt(cell *counterCell, start int) *cellgraph.Graph {
	g := &cellgraph.Graph{}
	g.Add(cell, cellgraph.Lit(tensor.FromSlice([]float32{float32(start)}, 1, 1)), cellgraph.Lit(tensor.New(1, 1)))
	g.Results = []cellgraph.OutputSpec{{Name: "word", Node: 0, Out: 0}}
	return g
}

func counterSpec(cell *counterCell, start, maxSteps int, stop float32) GenerateSpec {
	return GenerateSpec{
		Prompt:     counterPrompt(cell, start),
		SeedNode:   0,
		Cell:       cell,
		FeedBack:   map[string]string{"ids": "word", "h": "h"},
		StopOutput: "word",
		StopToken:  stop,
		MaxSteps:   maxSteps,
	}
}

func TestGenerateStopsAtToken(t *testing.T) {
	cell := &counterCell{modulus: 10}
	srv, err := New(Config{Workers: 1, Cells: []CellSpec{{Cell: cell, MaxBatch: 8}}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	// Prompt emits 3; generation continues 4,5,6,7 and stops at 7.
	got, err := srv.Generate(context.Background(), counterSpec(cell, 2, 100, 7))
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{4, 5, 6, 7}
	if len(got) != len(want) {
		t.Fatalf("emitted %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("emitted %v, want %v", got, want)
		}
	}
}

func TestGenerateRespectsMaxSteps(t *testing.T) {
	cell := &counterCell{modulus: 10}
	srv, err := New(Config{Workers: 1, Cells: []CellSpec{{Cell: cell, MaxBatch: 8}}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	// Stop token 99 never appears; MaxSteps bounds the output.
	got, err := srv.Generate(context.Background(), counterSpec(cell, 0, 6, 99))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 {
		t.Fatalf("emitted %d steps, want 6", len(got))
	}
	// Prompt emits 1; the six generated steps emit 2..7.
	if got[0] != 2 || got[5] != 7 {
		t.Fatalf("emitted %v", got)
	}
}

func TestGenerateFirstStepLiteral(t *testing.T) {
	cell := &counterCell{modulus: 100}
	srv, err := New(Config{Workers: 1, Cells: []CellSpec{{Cell: cell, MaxBatch: 8}}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	spec := counterSpec(cell, 2, 3, 999)
	// Force the first generated step to read ids=50 instead of the
	// prompt's word output (3): emissions 51,52,53.
	spec.FirstStep = map[string]float32{"ids": 50}
	got, err := srv.Generate(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 51 || got[2] != 53 {
		t.Fatalf("emitted %v", got)
	}
}

func TestGenerateMatchesManualFeedPreviousWithRealDecoder(t *testing.T) {
	// Real DecoderCell: Generate must equal a hand-rolled feed-previous
	// loop over Step.
	rng := tensor.NewRNG(77)
	dec := rnn.NewDecoderCell("dec", tVocab, tEmbed, tHidden, rng)
	srv, err := New(Config{Workers: 2, Cells: []CellSpec{{Cell: dec, MaxBatch: 8}}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()

	prompt := []int{5, 9, 13}
	g := &cellgraph.Graph{}
	zero := cellgraph.Lit(tensor.New(1, tHidden))
	hOut, cOut := cellgraph.OutputIndex(dec, "h"), cellgraph.OutputIndex(dec, "c")
	for i, id := range prompt {
		ids := cellgraph.Lit(tensor.FromSlice([]float32{float32(id)}, 1, 1))
		if i == 0 {
			g.Add(dec, ids, zero, zero)
		} else {
			prev := cellgraph.NodeID(i - 1)
			g.Add(dec, ids, cellgraph.Ref(prev, hOut), cellgraph.Ref(prev, cOut))
		}
	}
	g.Results = []cellgraph.OutputSpec{{
		Name: "word", Node: cellgraph.NodeID(len(prompt) - 1), Out: cellgraph.OutputIndex(dec, "word"),
	}}

	const steps = 8
	got, err := srv.Generate(context.Background(), GenerateSpec{
		Prompt:     g,
		SeedNode:   cellgraph.NodeID(len(prompt) - 1),
		Cell:       dec,
		FeedBack:   map[string]string{"ids": "word", "h": "h", "c": "c"},
		StopOutput: "word",
		StopToken:  -1, // never
		MaxSteps:   steps,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Manual reference: run the prompt then feed-previous.
	h, c := tensor.New(1, tHidden), tensor.New(1, tHidden)
	var word *tensor.Tensor
	for _, id := range prompt {
		out, err := rnn.Step(dec, map[string]*tensor.Tensor{
			"ids": tensor.FromSlice([]float32{float32(id)}, 1, 1), "h": h, "c": c,
		})
		if err != nil {
			t.Fatal(err)
		}
		h, c, word = out["h"], out["c"], out["word"]
	}
	for i := 0; i < steps; i++ {
		out, err := rnn.Step(dec, map[string]*tensor.Tensor{"ids": word, "h": h, "c": c})
		if err != nil {
			t.Fatal(err)
		}
		h, c, word = out["h"], out["c"], out["word"]
		if got[i] != word.At(0, 0) {
			t.Fatalf("step %d: served %v, manual %v", i, got[i], word.At(0, 0))
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	cell := &counterCell{modulus: 10}
	srv, err := New(Config{Workers: 1, Cells: []CellSpec{{Cell: cell, MaxBatch: 8}}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	ctx := context.Background()
	base := counterSpec(cell, 2, 5, 7)

	spec := base
	spec.Prompt = nil
	if _, err := srv.Generate(ctx, spec); err == nil || !strings.Contains(err.Error(), "empty prompt") {
		t.Fatalf("want empty-prompt error, got %v", err)
	}
	spec = base
	spec.MaxSteps = 0
	if _, err := srv.Generate(ctx, spec); err == nil {
		t.Fatal("want MaxSteps error")
	}
	spec = base
	spec.Cell = &counterCell{modulus: 33} // unregistered type
	if _, err := srv.Generate(ctx, spec); err == nil || !strings.Contains(err.Error(), "not registered") {
		t.Fatalf("want unregistered error, got %v", err)
	}
	spec = base
	spec.SeedNode = 5
	if _, err := srv.Generate(ctx, spec); err == nil {
		t.Fatal("want seed-node error")
	}
	spec = base
	spec.StopOutput = "nope"
	if _, err := srv.Generate(ctx, spec); err == nil {
		t.Fatal("want stop-output error")
	}
	spec = base
	spec.FeedBack = map[string]string{"ids": "word"} // missing "h"
	if _, err := srv.Generate(ctx, spec); err == nil {
		t.Fatal("want missing-feedback error")
	}
	spec = base
	spec.FeedBack = map[string]string{"ids": "word", "h": "ghost"}
	if _, err := srv.Generate(ctx, spec); err == nil {
		t.Fatal("want bad-feedback-source error")
	}
}

func TestGenerateConcurrentSessionsBatch(t *testing.T) {
	// Many concurrent generations over one cell type: everything completes
	// and results stay per-session deterministic.
	cell := &counterCell{modulus: 1000}
	srv, err := New(Config{Workers: 2, Cells: []CellSpec{{Cell: cell, MaxBatch: 16}}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	const sessions = 10
	var wg sync.WaitGroup
	results := make([][]float32, sessions)
	errs := make([]error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = srv.Generate(context.Background(), counterSpec(cell, i*10, 5, -1))
		}(i)
	}
	wg.Wait()
	for i := 0; i < sessions; i++ {
		if errs[i] != nil {
			t.Fatalf("session %d: %v", i, errs[i])
		}
		for j, v := range results[i] {
			if want := float32(i*10 + 2 + j); v != want {
				t.Fatalf("session %d step %d = %v, want %v", i, j, v, want)
			}
		}
	}
}

func TestGeneratePromptNotMutated(t *testing.T) {
	cell := &counterCell{modulus: 10}
	srv, err := New(Config{Workers: 1, Cells: []CellSpec{{Cell: cell, MaxBatch: 8}}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	spec := counterSpec(cell, 2, 2, -1)
	nResults := len(spec.Prompt.Results)
	if _, err := srv.Generate(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Prompt.Results) != nResults {
		t.Fatal("Generate mutated the caller's prompt graph")
	}
}
