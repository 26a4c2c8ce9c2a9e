package core

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"batchmaker/internal/cellgraph"
	"batchmaker/internal/tensor"
)

// The types and functions prefixed ref are the map-based tracker and the
// dependency construction of Scheduler.AddSubgraph as they stood before the
// flat plan (commit 9e0b9d9), kept verbatim as the reference the slice-based
// structures must reproduce: same subgraphs released in the same order with
// the same intra-subgraph dependencies, and the same ready lists, pending
// counts and dependents inside the scheduler. They start from
// cellgraph.Partition, which the cellgraph package checks against its own
// map-based reference.

type refSpec struct {
	TypeKey string
	Nodes   []cellgraph.NodeID
	Deps    map[cellgraph.NodeID][]cellgraph.NodeID
}

type refTracker struct {
	graph      *cellgraph.Graph
	subs       []cellgraph.Subgraph
	extPending []int
	released   []bool
}

func newRefTracker(g *cellgraph.Graph) *refTracker {
	subs := cellgraph.Partition(g)
	t := &refTracker{
		graph:      g,
		subs:       subs,
		extPending: make([]int, len(subs)),
		released:   make([]bool, len(subs)),
	}
	for i, sub := range subs {
		t.extPending[i] = len(sub.ExternalDeps)
	}
	return t
}

func (t *refTracker) InitialSubgraphs() []refSpec {
	var out []refSpec
	for i := range t.subs {
		if !t.released[i] && t.extPending[i] == 0 {
			t.released[i] = true
			out = append(out, t.spec(i))
		}
	}
	return out
}

func (t *refTracker) NodeDone(n cellgraph.NodeID) []refSpec {
	var out []refSpec
	// A node's completion can release any subgraph listing it as an
	// external dependency.
	for i, sub := range t.subs {
		if t.released[i] {
			continue
		}
		for _, d := range sub.ExternalDeps {
			if d == n {
				t.extPending[i]--
				if t.extPending[i] == 0 {
					t.released[i] = true
					out = append(out, t.spec(i))
				}
				break
			}
		}
	}
	return out
}

func (t *refTracker) spec(i int) refSpec {
	sub := t.subs[i]
	member := make(map[cellgraph.NodeID]bool, len(sub.Nodes))
	for _, n := range sub.Nodes {
		member[n] = true
	}
	deps := make(map[cellgraph.NodeID][]cellgraph.NodeID)
	for _, n := range sub.Nodes {
		for _, d := range t.graph.Deps(n) {
			if member[d] {
				deps[n] = append(deps[n], d)
			}
		}
	}
	return refSpec{
		TypeKey: sub.TypeKey,
		Nodes:   append([]cellgraph.NodeID(nil), sub.Nodes...),
		Deps:    deps,
	}
}

// refSubgraph is what AddSubgraph built from a spec.
type refSubgraph struct {
	ready       []cellgraph.NodeID
	pendingDeps map[cellgraph.NodeID]int
	dependents  map[cellgraph.NodeID][]cellgraph.NodeID
}

func newRefSubgraph(spec refSpec) (*refSubgraph, error) {
	sg := &refSubgraph{
		pendingDeps: make(map[cellgraph.NodeID]int, len(spec.Deps)),
		dependents:  make(map[cellgraph.NodeID][]cellgraph.NodeID),
	}
	member := make(map[cellgraph.NodeID]bool, len(spec.Nodes))
	for _, n := range spec.Nodes {
		member[n] = true
	}
	for n, deps := range spec.Deps {
		if !member[n] {
			return nil, fmt.Errorf("core: dep entry for node %d outside subgraph", n)
		}
		cnt := 0
		for _, d := range deps {
			if !member[d] {
				return nil, fmt.Errorf("core: node %d lists external dep %d as internal", n, d)
			}
			sg.dependents[d] = append(sg.dependents[d], n)
			cnt++
		}
		if cnt > 0 {
			sg.pendingDeps[n] = cnt
		}
	}
	// Ready set: nodes with no intra-subgraph deps, ascending order.
	nodes := append([]cellgraph.NodeID(nil), spec.Nodes...)
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	for _, n := range nodes {
		if sg.pendingDeps[n] == 0 {
			sg.ready = append(sg.ready, n)
		}
	}
	if len(sg.ready) == 0 {
		return nil, fmt.Errorf("core: subgraph has no initially ready node (internal cycle?)")
	}
	return sg, nil
}

// checkSpec compares one released spec, and the scheduler subgraph built
// from it, with the reference's.
func checkSpec(t *testing.T, s *Scheduler, got SubgraphSpec, want refSpec) {
	t.Helper()
	if got.TypeKey != want.TypeKey || !slices.Equal(got.Nodes, want.Nodes) {
		t.Fatalf("released %s %v, reference %s %v", got.TypeKey, got.Nodes, want.TypeKey, want.Nodes)
	}
	deps := make(map[cellgraph.NodeID][]cellgraph.NodeID)
	for p, list := range got.Deps {
		for _, q := range list {
			deps[got.Nodes[p]] = append(deps[got.Nodes[p]], got.Nodes[q])
		}
	}
	if len(deps) != len(want.Deps) {
		t.Fatalf("subgraph %v: deps %v, reference %v", got.Nodes, deps, want.Deps)
	}
	for n, list := range want.Deps {
		if !slices.Equal(deps[n], list) {
			t.Fatalf("subgraph %v: node %d deps %v, reference %v", got.Nodes, n, deps[n], list)
		}
	}

	ref, err := newRefSubgraph(want)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddSubgraph(got); err != nil {
		t.Fatal(err)
	}
	subs := s.byReq[got.Req]
	sg := subs[len(subs)-1]
	var ready []cellgraph.NodeID
	for _, p := range sg.ready {
		ready = append(ready, sg.nodes[p])
	}
	if !slices.Equal(ready, ref.ready) {
		t.Fatalf("subgraph %v: ready %v, reference %v", got.Nodes, ready, ref.ready)
	}
	for p, n := range sg.nodes {
		pending, dependents := 0, []cellgraph.NodeID(nil)
		if sg.pendingDeps != nil {
			pending = int(sg.pendingDeps[p])
			for _, q := range sg.dependents[sg.depStart[p]:sg.depStart[p+1]] {
				dependents = append(dependents, sg.nodes[q])
			}
		}
		wantDependents := slices.Clone(ref.dependents[n])
		slices.Sort(dependents)
		slices.Sort(wantDependents) // built in map order at the parent
		if pending != ref.pendingDeps[n] || !slices.Equal(dependents, wantDependents) {
			t.Fatalf("subgraph %v node %d: pending %d dependents %v, reference %d %v",
				got.Nodes, n, pending, dependents, ref.pendingDeps[n], wantDependents)
		}
	}
}

// checkAgainstReference drives the tracker and the reference tracker through
// one random dependency-respecting completion order and compares every
// release, registering each released subgraph with a scheduler on the way.
func checkAgainstReference(t *testing.T, g *cellgraph.Graph, seed uint64) {
	t.Helper()
	tr, err := NewTracker(1, g)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefTracker(g)
	var types []TypeConfig
	for i := range g.NumCells() {
		key := g.Cell(cellgraph.NodeID(i)).TypeKey()
		if !slices.ContainsFunc(types, func(tc TypeConfig) bool { return tc.Key == key }) {
			types = append(types, TypeConfig{Key: key, MaxBatch: 4})
		}
	}
	s := mustScheduler(t, Config{Types: types})
	compare := func(got []SubgraphSpec, want []refSpec) {
		if len(got) != len(want) {
			t.Fatalf("released %d subgraphs, reference %d", len(got), len(want))
		}
		for i := range got {
			checkSpec(t, s, got[i], want[i])
		}
	}
	compare(tr.InitialSubgraphs(), ref.InitialSubgraphs())

	rng := tensor.NewRNG(seed)
	done := make([]bool, g.NumCells())
	for left := g.NumCells(); left > 0; left-- {
		var runnable []cellgraph.NodeID
		for i := range g.NumCells() {
			ok := !done[i]
			for _, d := range g.Deps(cellgraph.NodeID(i)) {
				ok = ok && done[d]
			}
			if ok {
				runnable = append(runnable, cellgraph.NodeID(i))
			}
		}
		n := runnable[rng.Intn(len(runnable))]
		done[n] = true
		got, err := tr.NodeDone(n)
		if err != nil {
			t.Fatal(err)
		}
		compare(got, ref.NodeDone(n))
	}
	if !tr.Finished() || s.LiveSubgraphs() != tr.NumSubgraphs() {
		t.Fatalf("finished=%v, %d of %d subgraphs registered", tr.Finished(), s.LiveSubgraphs(), tr.NumSubgraphs())
	}
}

// fakeDAG is a seeded random DAG over one to four cell types: every input
// is a literal with probability lit/256 and otherwise reads a random earlier
// node, giving chains, diamonds, repeated producers and isolated nodes.
func fakeDAG(seed uint64, n, types int, lit int) *cellgraph.Graph {
	rng := tensor.NewRNG(seed)
	cells := make([]*fakeCell, types)
	for i := range cells {
		cells[i] = newFakeCell(fmt.Sprintf("T%d", i))
		if rng.Intn(2) == 0 {
			cells[i] = newFakeInternalCell(fmt.Sprintf("T%d", i))
		}
	}
	row := cellgraph.Lit(tensor.New(1, 1))
	g := &cellgraph.Graph{}
	for id := 0; id < n; id++ {
		in := [2]cellgraph.Binding{row, row}
		for j := range in {
			if id > 0 && rng.Intn(256) >= lit {
				in[j] = cellgraph.Ref(cellgraph.NodeID(rng.Intn(id)), 0)
			}
		}
		g.Add(cells[rng.Intn(types)], in[:]...)
	}
	return g
}

// TestTrackerAndSchedulerMatchReference covers the shapes of the cellgraph
// fuzz corpus (chains, two-phase Seq2Seq, trees) and seeded random DAGs.
func TestTrackerAndSchedulerMatchReference(t *testing.T) {
	a, b := newFakeCell("A"), newFakeCell("B")
	leaf, internal := newFakeCell("L"), newFakeInternalCell("I")
	for n := 1; n <= 24; n++ {
		checkAgainstReference(t, fakeChain(a, n), uint64(n))
		checkAgainstReference(t, fakeTwoPhase(a, b, n, 1+n%12), uint64(n))
		checkAgainstReference(t, fakeTree(leaf, internal, n), uint64(n))
	}
	for seed := uint64(1); seed <= 200; seed++ {
		rng := tensor.NewRNG(seed)
		checkAgainstReference(t, fakeDAG(seed, 1+rng.Intn(50), 1+rng.Intn(4), rng.Intn(256)), seed)
	}
}
