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
type Tracker struct {
	req        RequestID
	graph      *cellgraph.Graph
	subs       []cellgraph.Subgraph
	extPending []int32 // subgraph index -> unmet external deps
	released   []bool
	done       []bool
	remaining  int
}

// NewTracker validates the request's graph, partitions it and prepares
// release tracking.
func NewTracker(req RequestID, g *cellgraph.Graph) (*Tracker, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return newTracker(req, g), nil
}

// TrackState is NewTracker for a graph that already has execution state: a
// cellgraph.State exists only for a graph that validated, so an admission
// that builds both validates once.
func TrackState(req RequestID, s *cellgraph.State) *Tracker {
	return newTracker(req, s.Graph())
}

func newTracker(req RequestID, g *cellgraph.Graph) *Tracker {
	subs := cellgraph.Partition(g)
	flags := make([]bool, len(subs)+len(g.Nodes))
	t := &Tracker{
		req:        req,
		graph:      g,
		subs:       subs,
		extPending: make([]int32, len(subs)),
		released:   flags[:len(subs)],
		done:       flags[len(subs):],
		remaining:  len(g.Nodes),
	}
	for i := range subs {
		t.extPending[i] = int32(len(subs[i].ExternalDeps))
	}
	return t
}

// Req returns the request ID.
func (t *Tracker) Req() RequestID { return t.req }

// Graph returns the request's cell graph.
func (t *Tracker) Graph() *cellgraph.Graph { return t.graph }

// NumSubgraphs returns the partition size.
func (t *Tracker) NumSubgraphs() int { return len(t.subs) }

// InitialSubgraphs returns the specs of subgraphs with no external
// dependencies — releasable the moment the request is admitted. Each spec is
// returned at most once across InitialSubgraphs/NodeDone.
func (t *Tracker) InitialSubgraphs() []SubgraphSpec {
	var out []SubgraphSpec
	for i := range t.subs {
		if !t.released[i] && t.extPending[i] == 0 {
			if out == nil {
				out = make([]SubgraphSpec, 0, len(t.subs)-i) // one allocation, not a doubling run
			}
			t.released[i] = true
			out = append(out, t.spec(i))
		}
	}
	return out
}

// NodeDone records the actual completion of a node and returns the specs of
// subgraphs whose external dependencies just became fully satisfied.
func (t *Tracker) NodeDone(n cellgraph.NodeID) ([]SubgraphSpec, error) {
	if int(n) < 0 || int(n) >= len(t.done) {
		return nil, fmt.Errorf("core: tracker: unknown node %d", n)
	}
	if t.done[n] {
		return nil, fmt.Errorf("core: tracker: node %d completed twice", n)
	}
	t.done[n] = true
	t.remaining--
	var out []SubgraphSpec
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
