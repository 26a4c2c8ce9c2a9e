package cellgraph

import (
	"testing"

	"batchmaker/internal/rnn"
	"batchmaker/internal/tensor"
)

// FuzzUnfold drives the unfold → partition → execute pipeline from seeded
// random shapes and checks the structural contracts every downstream layer
// (tracker, scheduler, server) assumes:
//
//   - unfolded graphs validate and are acyclic (TopoOrder succeeds);
//   - Partition covers every node exactly once, groups only same-type nodes,
//     and computes ExternalDeps consistently with the node dependencies;
//   - level-batched execution is bit-identical to sequential execution (the
//     cellular-batching correctness property at the single-graph level).
//
// Under plain `go test` the seed corpus runs as regression tests; use
// `go test -fuzz FuzzUnfold ./internal/cellgraph` to explore.
func FuzzUnfold(f *testing.F) {
	f.Add(uint64(1), byte(0), byte(5))
	f.Add(uint64(2), byte(1), byte(7))
	f.Add(uint64(3), byte(2), byte(9))
	f.Add(uint64(4), byte(0), byte(1))
	f.Add(uint64(5), byte(2), byte(1))
	f.Add(uint64(6), byte(1), byte(0))
	f.Fuzz(func(t *testing.T, seed uint64, kind, size byte) {
		rng := tensor.NewRNG(seed)
		cells := tensor.NewRNG(99)
		lstm := rnn.NewLSTMCell("lstm", tEmbed, tHidden, cells)
		enc := rnn.NewEncoderCell("enc", tVocab, tEmbed, tHidden, cells)
		dec := rnn.NewDecoderCell("dec", tVocab, tEmbed, tHidden, cells)
		leaf := rnn.NewTreeLeafCell("leaf", tVocab, tEmbed, tHidden, cells)
		internal := rnn.NewTreeInternalCell("internal", tHidden, cells)

		var g *Graph
		var err error
		switch kind % 3 {
		case 0: // LSTM chain
			n := int(size)%24 + 1
			g, err = UnfoldChain(lstm, tensor.RandUniform(rng, 1, n, tEmbed))
		case 1: // seq2seq
			src := int(size)%12 + 1
			dst := int(size/13)%12 + 1
			ids := make([]int, src)
			for i := range ids {
				ids[i] = 2 + rng.Intn(tVocab-2)
			}
			g, err = UnfoldSeq2Seq(enc, dec, ids, dst)
		default: // TreeLSTM
			g, err = UnfoldTree(leaf, internal, randomTree(rng, int(size)%12+1))
		}
		if err != nil {
			t.Fatalf("unfold failed on valid shape: %v", err)
		}

		if err := g.Validate(); err != nil {
			t.Fatalf("unfolded graph invalid: %v", err)
		}
		order, err := g.TopoOrder()
		if err != nil {
			t.Fatalf("unfolded graph cyclic: %v", err)
		}
		if len(order) != len(g.Nodes) {
			t.Fatalf("topo order covers %d of %d nodes", len(order), len(g.Nodes))
		}

		// Partition: identical to the map-based reference, then exact cover,
		// type purity, ExternalDeps consistency.
		checkPartition(t, g)
		subs := Partition(g)
		owner := make(map[NodeID]int)
		for si, sub := range subs {
			in := make(map[NodeID]bool, len(sub.Nodes))
			for _, id := range sub.Nodes {
				if prev, dup := owner[id]; dup {
					t.Fatalf("node %d in subgraphs %d and %d", id, prev, si)
				}
				owner[id] = si
				in[id] = true
				if tk := g.Nodes[id].Cell.TypeKey(); tk != sub.TypeKey {
					t.Fatalf("subgraph %d (%s) contains node %d of type %s", si, sub.TypeKey, id, tk)
				}
			}
			ext := make(map[NodeID]bool, len(sub.ExternalDeps))
			for _, d := range sub.ExternalDeps {
				if in[d] {
					t.Fatalf("subgraph %d lists member %d as external dep", si, d)
				}
				ext[d] = true
			}
			for _, id := range sub.Nodes {
				for _, d := range g.Nodes[id].Deps() {
					if !in[d] && !ext[d] {
						t.Fatalf("subgraph %d: dep %d of node %d neither member nor external", si, d, id)
					}
				}
			}
		}
		if len(owner) != len(g.Nodes) {
			t.Fatalf("partition covers %d of %d nodes", len(owner), len(g.Nodes))
		}

		// Batched execution must be bit-identical to sequential execution.
		seq, err := ExecuteSequential(g)
		if err != nil {
			t.Fatalf("sequential execution: %v", err)
		}
		bat, err := ExecuteLevelBatched(g)
		if err != nil {
			t.Fatalf("batched execution: %v", err)
		}
		if len(seq) != len(bat) {
			t.Fatalf("result sets differ: %d vs %d outputs", len(seq), len(bat))
		}
		for name, want := range seq {
			got, ok := bat[name]
			if !ok {
				t.Fatalf("batched execution missing output %q", name)
			}
			if !got.Equal(want) {
				t.Fatalf("output %q differs between sequential and batched execution", name)
			}
		}
	})
}

// randomTree builds a deterministic random binary parse tree with n leaves.
func randomTree(rng *tensor.RNG, n int) *Tree {
	if n <= 1 {
		return &Tree{WordID: rng.Intn(tVocab)}
	}
	k := 1 + rng.Intn(n-1)
	return &Tree{Left: randomTree(rng, k), Right: randomTree(rng, n-k)}
}
