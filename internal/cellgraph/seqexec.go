package cellgraph

import (
	"fmt"

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
