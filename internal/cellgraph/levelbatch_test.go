package cellgraph

import (
	"fmt"

	"batchmaker/internal/rnn"
	"batchmaker/internal/tensor"
)

// ExecuteLevelBatched runs the graph with per-request level batching: at
// each round, all currently ready nodes of the same cell type execute as one
// batched StepInto. This is how a graph-merging backend (TensorFlow Fold, DyNet)
// executes a single request; the tests hold it to ExecuteSequential's
// results, which only the batching may not change.
func ExecuteLevelBatched(g *Graph) (map[string]*tensor.Tensor, error) {
	s, err := NewState(g)
	if err != nil {
		return nil, err
	}
	for !s.Finished() {
		// The ready list is this executor's own: a round's nodes are those
		// not yet run whose producers all ran in earlier rounds.
		var ready []NodeID
		for i := range g.nodes {
			if id := NodeID(i); !s.Done(id) && depsDone(s, id) {
				ready = append(ready, id)
			}
		}
		if len(ready) == 0 {
			return nil, fmt.Errorf("cellgraph: stuck with %d nodes remaining", s.Remaining())
		}
		// One batch per cell type.
		for t := range int32(len(g.keys)) {
			var batch []NodeID
			for _, id := range ready {
				if g.nodes[id].typ == t {
					batch = append(batch, id)
				}
			}
			if err := RunBatch(s, batch); err != nil {
				return nil, err
			}
		}
	}
	return s.Results(), nil
}

func depsDone(s *State, id NodeID) bool {
	for _, d := range s.g.Deps(id) {
		if !s.Done(d) {
			return false
		}
	}
	return true
}

// RunBatch executes a set of same-type ready nodes (possibly from the same
// request here, or gathered across requests by callers that share a State
// per request) as one batched StepInto with one arena, then copies each
// node's row of the outputs into its rows and completes it.
func RunBatch(s *State, ids []NodeID) error {
	if len(ids) == 0 {
		return nil
	}
	g := s.Graph()
	cell := g.Cell(ids[0])
	for _, id := range ids[1:] {
		if g.nodes[id].typ != g.nodes[ids[0]].typ {
			return fmt.Errorf("cellgraph: RunBatch mixes cell types")
		}
	}
	widths, err := rnn.OutputWidthsOf(cell)
	if err != nil {
		return err
	}
	arena := tensor.NewArena(0)
	inputs := make(map[string]*tensor.Tensor, len(cell.InputNames()))
	for j, name := range cell.InputNames() {
		rows := make([]*tensor.Tensor, len(ids))
		for i, id := range ids {
			rows[i] = s.InputRow(id, j)
		}
		inputs[name] = tensor.ConcatRows(rows...)
	}
	outs := make(map[string]*tensor.Tensor, len(widths))
	for o, name := range cell.OutputNames() {
		outs[name] = arena.Get(len(ids), widths[o])
	}
	if err := cell.StepInto(inputs, outs, arena); err != nil {
		return fmt.Errorf("cellgraph: batched step of %s: %w", cell.Name(), err)
	}
	for i, id := range ids {
		for o, name := range cell.OutputNames() {
			if row := s.OutputRow(id, o); row != nil {
				copy(row.Data(), outs[name].RowSlice(i))
			}
		}
		s.Complete(id)
	}
	return nil
}
