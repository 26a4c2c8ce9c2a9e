package cellgraph

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"batchmaker/internal/rnn"
	"batchmaker/internal/tensor"
)

// refDeps and refPartition are the map-based Node.Deps and Partition as they
// stood before the flat plan (commit 9e0b9d9), kept verbatim — only the
// receiver became a graph and node ID and Inputs is read through Input —
// as the reference the flat Partition must reproduce exactly: same subgraphs,
// in the same order, with the same Nodes and ExternalDeps. The reference
// derives every edge from the bindings, so it also checks the edges Add
// caches.

func refDeps(g *Graph, id NodeID) []NodeID {
	n := len(g.Cell(id).InputNames())
	seen := make(map[NodeID]bool, n)
	var deps []NodeID
	for i := range n {
		if b := g.Input(id, i); b.From != NoNode && !seen[b.From] {
			seen[b.From] = true
			deps = append(deps, b.From)
		}
	}
	return deps
}

func refPartition(g *Graph) []*Subgraph {
	n := g.NumCells()
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}
	for i := range n {
		id := NodeID(i)
		for _, d := range refDeps(g, id) {
			if g.Cell(d).TypeKey() == g.Cell(id).TypeKey() {
				union(int(d), int(id))
			}
		}
	}
	groups := make(map[int][]NodeID)
	for i := range n {
		r := find(i)
		groups[r] = append(groups[r], NodeID(i))
	}
	roots := make([]int, 0, len(groups))
	for r := range groups {
		roots = append(roots, r)
	}
	sort.Ints(roots)
	// Sort each group's members and order subgraphs by smallest member.
	subs := make([]*Subgraph, 0, len(groups))
	for _, r := range roots {
		members := groups[r]
		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
		inSub := make(map[NodeID]bool, len(members))
		for _, m := range members {
			inSub[m] = true
		}
		var ext []NodeID
		seen := make(map[NodeID]bool)
		for _, m := range members {
			for _, d := range refDeps(g, m) {
				if !inSub[d] && !seen[d] {
					seen[d] = true
					ext = append(ext, d)
				}
			}
		}
		sort.Slice(ext, func(i, j int) bool { return ext[i] < ext[j] })
		subs = append(subs, &Subgraph{
			TypeKey:      g.Cell(members[0]).TypeKey(),
			Nodes:        members,
			ExternalDeps: ext,
		})
	}
	// Deterministic overall order by first member.
	sort.Slice(subs, func(i, j int) bool { return subs[i].Nodes[0] < subs[j].Nodes[0] })
	return subs
}

// checkPartition compares Partition with the reference on one graph, and
// checks what the reference has no counterpart for: the cached edges against
// the bindings, and Deps — per position, the member positions a node reads —
// against the edges.
func checkPartition(t *testing.T, g *Graph) {
	t.Helper()
	for i := range g.NumCells() {
		want := refDeps(g, NodeID(i))
		slices.Sort(want)
		if got := g.Deps(NodeID(i)); !slices.Equal(got, want) {
			t.Fatalf("node %d: cached deps %v, bindings say %v", i, got, want)
		}
	}
	got, want := Partition(g), refPartition(g)
	if len(got) != len(want) {
		t.Fatalf("%d subgraphs, reference has %d", len(got), len(want))
	}
	for i := range got {
		sg, ref := &got[i], want[i]
		if sg.TypeKey != ref.TypeKey || !slices.Equal(sg.Nodes, ref.Nodes) || !slices.Equal(sg.ExternalDeps, ref.ExternalDeps) {
			t.Fatalf("subgraph %d = %+v, reference %+v", i, *sg, *ref)
		}
		if sg.Deps != nil && len(sg.Deps) != len(sg.Nodes) {
			t.Fatalf("subgraph %d: %d dep lists for %d nodes", i, len(sg.Deps), len(sg.Nodes))
		}
		for p, m := range sg.Nodes {
			var intra []NodeID
			if sg.Deps != nil {
				for _, q := range sg.Deps[p] {
					intra = append(intra, sg.Nodes[q])
				}
			}
			// Every edge of a member is either internal or external.
			all := append(intra, sg.ExternalDeps...)
			for _, d := range g.Deps(m) {
				if !slices.Contains(all, d) {
					t.Fatalf("subgraph %d: dep %d of node %d neither member nor external", i, d, m)
				}
			}
			for _, d := range intra {
				if _, reads := slices.BinarySearch(g.Deps(m), d); !reads || !slices.IsSorted(intra) {
					t.Fatalf("subgraph %d: node %d lists members %v, reads %v", i, m, intra, g.Deps(m))
				}
			}
		}
	}
}

// dagCell is a tensor-free cell for structural tests: only its type key and
// its arity matter.
type dagCell struct {
	key       string
	ins, outs []string
}

func (c *dagCell) Name() string          { return c.key }
func (c *dagCell) TypeKey() string       { return c.key }
func (c *dagCell) InputNames() []string  { return c.ins }
func (c *dagCell) OutputNames() []string { return c.outs }
func (c *dagCell) OutputWidths() map[string]int {
	widths := make(map[string]int, len(c.outs))
	for _, name := range c.outs {
		widths[name] = 1
	}
	return widths
}
func (c *dagCell) StepInto(_, _ map[string]*tensor.Tensor, _ *tensor.Arena) error {
	return fmt.Errorf("dagCell %s is structural only", c.key)
}

var _ rnn.Cell = (*dagCell)(nil)

// randomDAG builds a seeded DAG of n nodes over `types` cell types with one
// to four inputs each. Every input is a literal with probability lit/256 and
// otherwise reads a random earlier node, so low values give dense graphs
// full of diamonds and repeated producers, high values isolated nodes and
// short chains; with one type the whole graph may be one subgraph.
func randomDAG(seed uint64, n, types int, lit byte) *Graph {
	rng := tensor.NewRNG(seed)
	cells := make([]*dagCell, types)
	for i := range cells {
		c := &dagCell{key: fmt.Sprintf("T%d", i), outs: []string{"a", "b"}}
		for j := 0; j <= rng.Intn(4); j++ {
			c.ins = append(c.ins, fmt.Sprintf("in%d", j))
		}
		cells[i] = c
	}
	row := tensor.New(1, 1)
	g := &Graph{}
	for id := 0; id < n; id++ {
		cell := cells[rng.Intn(types)]
		in := make([]Binding, len(cell.ins))
		for j := range in {
			if id == 0 || rng.Intn(256) < int(lit) {
				in[j] = Lit(row)
			} else {
				in[j] = Ref(NodeID(rng.Intn(id)), rng.Intn(2))
			}
		}
		g.Add(cell, in...)
	}
	return g
}

// TestPartitionMatchesReference runs the comparison over seeded random DAGs
// of every flavour: single- and mixed-type, dense to edgeless.
func TestPartitionMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 300; seed++ {
		rng := tensor.NewRNG(seed)
		g := randomDAG(seed, 1+rng.Intn(60), 1+rng.Intn(4), byte(rng.Intn(256)))
		if err := g.Validate(); err != nil {
			t.Fatalf("seed %d: generated graph invalid: %v", seed, err)
		}
		checkPartition(t, g)
	}
	checkPartition(t, &Graph{}) // no nodes, no subgraphs
}

// FuzzPartition explores the same comparison; the unfolded shapes (chains,
// Seq2Seq, trees) go through it in FuzzUnfold.
func FuzzPartition(f *testing.F) {
	f.Add(uint64(1), byte(1), byte(1), byte(0))     // one long same-type chain-ish blob
	f.Add(uint64(2), byte(40), byte(3), byte(64))   // mixed types, dense
	f.Add(uint64(3), byte(60), byte(2), byte(200))  // mostly isolated nodes
	f.Add(uint64(4), byte(25), byte(4), byte(255))  // no edges at all
	f.Add(uint64(5), byte(255), byte(1), byte(128)) // large single type
	f.Fuzz(func(t *testing.T, seed uint64, n, types, lit byte) {
		g := randomDAG(seed, 1+int(n), 1+int(types)%6, lit)
		if err := g.Validate(); err != nil {
			t.Fatalf("generated graph invalid: %v", err)
		}
		checkPartition(t, g)
	})
}
