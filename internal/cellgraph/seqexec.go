package cellgraph

import (
	"fmt"

	"batchmaker/internal/rnn"
	"batchmaker/internal/tensor"
)

// ExecuteSequential runs a request's cell graph one node at a time (batch
// size 1) in dependency order and returns the request results. It is the
// unbatched reference execution that cellular batching must reproduce
// bit-for-bit (the batching-transparency invariant), and is also used by the
// examples for ground truth. Each node steps through StepInto straight into
// its rows, with one arena and one pair of maps for the whole request, so
// its allocations do not grow with the number of nodes.
func ExecuteSequential(g *Graph) (map[string]*tensor.Tensor, error) {
	s, widths, err := newState(g)
	if err != nil {
		return nil, err
	}
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	arena := tensor.NewArena(0)
	inputs := make(map[string]*tensor.Tensor)
	outs := make(map[string]*tensor.Tensor)
	for _, id := range order {
		cell, typ := g.Cell(id), g.nodes[id].typ
		clear(inputs)
		for i, name := range cell.InputNames() {
			inputs[name] = s.InputRow(id, i)
		}
		arena.Reset()
		clear(outs)
		for o, name := range cell.OutputNames() {
			row := s.OutputRow(id, o)
			if row == nil {
				row = arena.Get(1, widths[typ][o]) // nothing reads it
			}
			outs[name] = row
		}
		if err := cell.StepInto(inputs, outs, arena); err != nil {
			return nil, fmt.Errorf("cellgraph: node %d (%s): %w", id, cell.Name(), err)
		}
		s.Complete(id)
	}
	return s.Results(), nil
}

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
