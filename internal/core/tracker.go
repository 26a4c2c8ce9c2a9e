package core

import (
	"fmt"
	"slices"

	"batchmaker/internal/cellgraph"
)

// Tracker is the request processor's per-request dependency bookkeeping
// (§4.2): it partitions a request's cell graph into same-type subgraphs and
// releases each subgraph to the scheduler once all of the subgraph's
// external dependencies have completed (§4.3). The Tracker is tensor-free so
// the discrete-event simulator can drive millions of cells cheaply; the live
// server pairs it with a cellgraph.State that holds the actual data.
//
// A Tracker may serve request after request (Reset), keeping its arrays —
// the partition's included — so a pooled one admits without allocating.
type Tracker struct {
	req        RequestID
	graph      *cellgraph.Graph
	subs       []cellgraph.Subgraph
	extPending []int32 // subgraph index -> unmet external deps
	released   []bool
	done       []bool
	remaining  int

	// part holds the arrays subs is carved from; flags backs released and
	// done; specs backs the slices InitialSubgraphs and NodeDone return.
	part  cellgraph.Partitioner
	flags []bool
	specs []SubgraphSpec
}

// NewTracker validates the request's graph, partitions it and prepares
// release tracking.
func NewTracker(req RequestID, g *cellgraph.Graph) (*Tracker, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	t := new(Tracker)
	t.reset(req, g)
	return t, nil
}

// TrackState is NewTracker for a graph that already has execution state: a
// cellgraph.State exists only for a graph that validated, so an admission
// that builds both validates once.
func TrackState(req RequestID, s *cellgraph.State) *Tracker {
	t := new(Tracker)
	t.Reset(req, s)
	return t
}

// Reset is TrackState into t: it starts tracking request req over s's
// graph, reusing t's arrays. Specs t handed out before are overwritten.
func (t *Tracker) Reset(req RequestID, s *cellgraph.State) { t.reset(req, s.Graph()) }

func (t *Tracker) reset(req RequestID, g *cellgraph.Graph) {
	subs := t.part.Partition(g)
	n := len(subs) + g.NumCells()
	t.flags = slices.Grow(t.flags[:0], n)[:n]
	clear(t.flags)
	t.extPending = slices.Grow(t.extPending[:0], len(subs))[:len(subs)]
	for i := range subs {
		t.extPending[i] = int32(len(subs[i].ExternalDeps))
	}
	t.req, t.graph, t.subs = req, g, subs
	t.released, t.done = t.flags[:len(subs)], t.flags[len(subs):]
	t.remaining = g.NumCells()
}

// Req returns the request ID.
func (t *Tracker) Req() RequestID { return t.req }

// Graph returns the request's cell graph.
func (t *Tracker) Graph() *cellgraph.Graph { return t.graph }

// NumSubgraphs returns the partition size.
func (t *Tracker) NumSubgraphs() int { return len(t.subs) }

// InitialSubgraphs returns the specs of subgraphs with no external
// dependencies — releasable the moment the request is admitted. Each spec is
// returned at most once across InitialSubgraphs/NodeDone. The slice is the
// tracker's own and valid until its next InitialSubgraphs or NodeDone call.
func (t *Tracker) InitialSubgraphs() []SubgraphSpec {
	out := t.specs[:0]
	for i := range t.subs {
		if !t.released[i] && t.extPending[i] == 0 {
			t.released[i] = true
			out = append(out, t.spec(i))
		}
	}
	t.specs = out
	return out
}

// NodeDone records the actual completion of a node and returns the specs of
// subgraphs whose external dependencies just became fully satisfied, in a
// slice valid until the tracker's next InitialSubgraphs or NodeDone call.
func (t *Tracker) NodeDone(n cellgraph.NodeID) ([]SubgraphSpec, error) {
	if int(n) < 0 || int(n) >= len(t.done) {
		return nil, fmt.Errorf("core: tracker: unknown node %d", n)
	}
	if t.done[n] {
		return nil, fmt.Errorf("core: tracker: node %d completed twice", n)
	}
	t.done[n] = true
	t.remaining--
	out := t.specs[:0]
	// A node's completion can release any subgraph listing it as an
	// external dependency.
	for i := range t.subs {
		if t.released[i] {
			continue
		}
		if _, waits := slices.BinarySearch(t.subs[i].ExternalDeps, n); waits {
			t.extPending[i]--
			if t.extPending[i] == 0 {
				t.released[i] = true
				out = append(out, t.spec(i))
			}
		}
	}
	t.specs = out
	return out, nil
}

// Finished reports whether every node of the request has completed — the
// moment the request departs and its result returns to the user.
func (t *Tracker) Finished() bool { return t.remaining == 0 }

// Remaining returns the number of uncompleted nodes.
func (t *Tracker) Remaining() int { return t.remaining }

// spec hands the scheduler subgraph i as Partition laid it out: the member
// and dependency slices are shared, not copied, and read-only on both sides.
func (t *Tracker) spec(i int) SubgraphSpec {
	sub := &t.subs[i]
	return SubgraphSpec{Req: t.req, TypeKey: sub.TypeKey, Nodes: sub.Nodes, Deps: sub.Deps}
}
