package cellgraph

import (
	"fmt"

	"batchmaker/internal/tensor"
)

// ExecuteSequential runs a request's cell graph one node at a time (batch
// size 1) in dependency order and returns the request results. It is the
// unbatched reference execution that cellular batching must reproduce
// bit-for-bit (the batching-transparency invariant), and is also used by the
// examples for ground truth.
func ExecuteSequential(g *Graph) (map[string]*tensor.Tensor, error) {
	s, err := NewState(g)
	if err != nil {
		return nil, err
	}
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	inputs := make(map[string]*tensor.Tensor)
	for _, id := range order {
		node := &g.Nodes[id]
		clear(inputs)
		for i, name := range node.Cell.InputNames() {
			inputs[name] = s.InputRow(id, i)
		}
		out, err := node.Cell.Step(inputs)
		if err != nil {
			return nil, fmt.Errorf("cellgraph: node %d (%s): %w", id, node.Cell.Name(), err)
		}
		s.Complete(id, out)
	}
	return s.Results(), nil
}

// ExecuteLevelBatched runs the graph with per-request level batching: at
// each round, all currently ready nodes of the same cell type execute as one
// batched Step. This is how a graph-merging backend (TensorFlow Fold, DyNet)
// executes a single request, and is used by baselines and tests.
// Results are identical to ExecuteSequential; only the batching differs.
func ExecuteLevelBatched(g *Graph) (map[string]*tensor.Tensor, error) {
	s, err := NewState(g)
	if err != nil {
		return nil, err
	}
	for !s.Finished() {
		// The ready list is this executor's own: a round's nodes are those
		// not yet run whose producers all ran in earlier rounds.
		var ready []NodeID
		for i := range g.Nodes {
			if id := NodeID(i); !s.Done(id) && depsDone(s, id) {
				ready = append(ready, id)
			}
		}
		if len(ready) == 0 {
			return nil, fmt.Errorf("cellgraph: stuck with %d nodes remaining", s.Remaining())
		}
		// One batch per cell type, in order of first appearance.
		for len(ready) > 0 {
			var batch, rest []NodeID
			for _, id := range ready {
				if g.Nodes[id].Cell.TypeKey() == g.Nodes[ready[0]].Cell.TypeKey() {
					batch = append(batch, id)
				} else {
					rest = append(rest, id)
				}
			}
			if err := RunBatch(s, batch); err != nil {
				return nil, err
			}
			ready = rest
		}
	}
	return s.Results(), nil
}

func depsDone(s *State, id NodeID) bool {
	for _, d := range s.g.Nodes[id].deps {
		if !s.Done(d) {
			return false
		}
	}
	return true
}

// RunBatch executes a set of same-type ready nodes (possibly from the same
// request here, or gathered across requests by callers that share a State
// per request) as one batched cell invocation, then completes each node with
// its row of the outputs.
func RunBatch(s *State, ids []NodeID) error {
	if len(ids) == 0 {
		return nil
	}
	g := s.Graph()
	cell := g.Nodes[ids[0]].Cell
	for _, id := range ids[1:] {
		if g.Nodes[id].Cell.TypeKey() != cell.TypeKey() {
			return fmt.Errorf("cellgraph: RunBatch mixes cell types")
		}
	}
	inputs := make(map[string]*tensor.Tensor, len(cell.InputNames()))
	for j, name := range cell.InputNames() {
		rows := make([]*tensor.Tensor, len(ids))
		for i, id := range ids {
			rows[i] = s.InputRow(id, j)
		}
		inputs[name] = tensor.ConcatRows(rows...)
	}
	out, err := cell.Step(inputs)
	if err != nil {
		return fmt.Errorf("cellgraph: batched step of %s: %w", cell.Name(), err)
	}
	for i, id := range ids {
		rowOut := make(map[string]*tensor.Tensor, len(out))
		for name, t := range out {
			rowOut[name] = tensor.SliceRows(t, i, i+1)
		}
		s.Complete(id, rowOut)
	}
	return nil
}
