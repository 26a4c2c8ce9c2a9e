package cellgraph

import "slices"

// Subgraph is a connected group of same-cell-type nodes within one request's
// cell graph (§4.3): "a subgraph contains a single node or a number of
// connected nodes with the property that all external dependencies to other
// parts of the graph have been satisfied", and all its nodes share one cell
// type. Subgraphs are the unit the scheduler pins to workers.
//
// For a Seq2Seq request the encoder chain forms one subgraph and the decoder
// chain another; for a 16-leaf TreeLSTM request there are 16 single-node
// leaf subgraphs and one 15-node internal subgraph (§4.4).
//
// All slices are carved from arrays shared by the whole partition and are
// read-only: the tracker hands them to the scheduler as they are.
type Subgraph struct {
	TypeKey string
	Nodes   []NodeID // in ascending ID order

	// ExternalDeps are nodes outside the subgraph that some member reads,
	// ascending. The subgraph is released to the scheduler once all of them
	// completed.
	ExternalDeps []NodeID

	// Deps lists, for the member at each position of Nodes, the positions
	// of the members it reads (ascending). It is nil for a single-node
	// subgraph, whose node reads no other member.
	Deps [][]int32
}

// Partition splits a cell graph into subgraphs: connected components of the
// undirected "same cell type and directly connected" relation, ordered by
// smallest member ID. It indexes the graph's dependency edges as Add left
// them and allocates a fixed handful of arrays, whatever the graph's size.
func Partition(g *Graph) []Subgraph {
	var p Partitioner
	return p.Partition(g)
}

// Partitioner keeps the arrays Partition carves subgraphs from, so that
// partitioning graph after graph allocates nothing once they are large
// enough. Each call overwrites the subgraphs the previous call returned.
type Partitioner struct {
	scratch      []int32
	subs         []Subgraph
	members, ext []NodeID
	intra        []int32
	lists        [][]int32
}

// Partition is the package-level Partition in pt's arrays.
func (pt *Partitioner) Partition(g *Graph) []Subgraph {
	n := len(g.Nodes)
	// Union-find whose roots are their component's smallest member, so that
	// numbering components at their root, in one ascending pass, orders them
	// by smallest member and fills each one's Nodes in ascending order.
	pt.scratch = zeroed(pt.scratch, 3*n)
	root, sub, pos := pt.scratch[:n], pt.scratch[n:2*n], pt.scratch[2*n:]
	for i := range root {
		root[i] = int32(i)
	}
	find := func(x int32) int32 {
		for root[x] != x {
			root[x] = root[root[x]]
			x = root[x]
		}
		return x
	}
	edges := 0
	for i := range g.Nodes {
		node := &g.Nodes[i]
		edges += len(node.deps)
		for _, d := range node.deps {
			if g.Nodes[d].typ != node.typ {
				continue
			}
			if a, b := find(int32(d)), find(int32(i)); a < b {
				root[b] = a
			} else {
				root[a] = b
			}
		}
	}
	count := 0
	for i := range root {
		if r := find(int32(i)); r == int32(i) {
			sub[i] = int32(count)
			count++
		} else {
			sub[i] = sub[r]
		}
	}
	pt.subs = zeroed(pt.subs, count)
	subs := pt.subs
	sizes := pos[:count] // borrowed: positions are not assigned yet
	for _, s := range sub {
		sizes[s]++
	}
	pt.members = slices.Grow(pt.members[:0], n)
	members := pt.members[:n]
	multi := 0 // members of subgraphs that have more than one
	for s, k := range sizes {
		subs[s].Nodes, members = members[:0:k], members[k:]
		if k > 1 {
			multi += int(k)
		}
	}
	for i, s := range sub {
		pos[i] = int32(len(subs[s].Nodes))
		subs[s].Nodes = append(subs[s].Nodes, NodeID(i))
	}
	// One pass over each subgraph's edges splits them into the positions of
	// members (Deps) and the outside producers (ExternalDeps). Both are
	// appended to arrays sized for every edge of the graph, so they never
	// grow and the carved slices stay valid.
	pt.ext = slices.Grow(pt.ext[:0], edges)
	ext := pt.ext
	var intra []int32
	var lists [][]int32
	if multi > 0 {
		pt.intra = slices.Grow(pt.intra[:0], edges)
		pt.lists = zeroed(pt.lists, multi)
		intra, lists = pt.intra, pt.lists
	}
	for s := range subs {
		sg := &subs[s]
		sg.TypeKey = g.keys[g.Nodes[sg.Nodes[0]].typ]
		if len(sg.Nodes) > 1 {
			sg.Deps, lists = lists[:len(sg.Nodes):len(sg.Nodes)], lists[len(sg.Nodes):]
		}
		extStart := len(ext)
		for p, m := range sg.Nodes {
			start := len(intra)
			for _, d := range g.Nodes[m].deps {
				if sub[d] == int32(s) {
					if sg.Deps != nil { // nil: a lone node reading itself, which Validate rejects
						intra = append(intra, pos[d])
					}
				} else {
					ext = append(ext, d)
				}
			}
			if len(intra) > start {
				sg.Deps[p] = intra[start:len(intra):len(intra)]
			}
		}
		if len(ext) > extStart {
			mine := ext[extStart:]
			slices.Sort(mine)
			mine = slices.Compact(mine)
			ext = ext[:extStart+len(mine)]
			sg.ExternalDeps = mine[:len(mine):len(mine)]
		}
	}
	return subs
}

// Size returns the number of nodes in the subgraph.
func (s *Subgraph) Size() int { return len(s.Nodes) }
