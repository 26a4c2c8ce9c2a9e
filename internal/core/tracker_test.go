package core

import (
	"testing"
	"testing/quick"

	"batchmaker/internal/cellgraph"
	"batchmaker/internal/tensor"
)

func TestTrackerChainSingleSubgraph(t *testing.T) {
	cell := newFakeCell("A")
	tr, err := NewTracker(7, fakeChain(cell, 4))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Req() != 7 || tr.NumSubgraphs() != 1 {
		t.Fatalf("req=%d subs=%d", tr.Req(), tr.NumSubgraphs())
	}
	specs := tr.InitialSubgraphs()
	if len(specs) != 1 || len(specs[0].Nodes) != 4 || specs[0].TypeKey != "A" {
		t.Fatalf("initial specs = %+v", specs)
	}
	// Intra-subgraph deps: node t depends on t-1.
	if len(specs[0].Deps[2]) != 1 || specs[0].Deps[2][0] != 1 {
		t.Fatalf("deps = %v", specs[0].Deps)
	}
	// Second call returns nothing (release-once).
	if again := tr.InitialSubgraphs(); len(again) != 0 {
		t.Fatalf("re-release: %+v", again)
	}
	for n := 0; n < 4; n++ {
		released, err := tr.NodeDone(cellgraph.NodeID(n))
		if err != nil {
			t.Fatal(err)
		}
		if len(released) != 0 {
			t.Fatalf("chain released extra subgraphs: %+v", released)
		}
	}
	if !tr.Finished() {
		t.Fatal("must be finished")
	}
}

func TestTrackerTwoPhaseReleasesSecondPhase(t *testing.T) {
	a, b := newFakeCell("A"), newFakeCell("B")
	tr, err := NewTracker(1, fakeTwoPhase(a, b, 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	initial := tr.InitialSubgraphs()
	if len(initial) != 1 || initial[0].TypeKey != "A" {
		t.Fatalf("initial = %+v", initial)
	}
	// Completing encoder nodes 0 and 1 releases nothing.
	for n := 0; n < 2; n++ {
		rel, err := tr.NodeDone(cellgraph.NodeID(n))
		if err != nil || len(rel) != 0 {
			t.Fatalf("n=%d rel=%+v err=%v", n, rel, err)
		}
	}
	// Completing the last encoder node releases the decoder subgraph.
	rel, err := tr.NodeDone(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rel) != 1 || rel[0].TypeKey != "B" || len(rel[0].Nodes) != 2 {
		t.Fatalf("decoder release = %+v", rel)
	}
}

func TestTrackerTreeReleasesInternalAfterAllLeaves(t *testing.T) {
	leaf, internal := newFakeCell("L"), newFakeInternalCell("I")
	tr, err := NewTracker(1, fakeTree(leaf, internal, 4))
	if err != nil {
		t.Fatal(err)
	}
	initial := tr.InitialSubgraphs()
	if len(initial) != 4 {
		t.Fatalf("initial subgraphs = %d, want 4 leaves", len(initial))
	}
	// Identify the leaf node IDs from the specs.
	var leaves []cellgraph.NodeID
	for _, s := range initial {
		if s.TypeKey != "L" || len(s.Nodes) != 1 {
			t.Fatalf("leaf spec = %+v", s)
		}
		leaves = append(leaves, s.Nodes[0])
	}
	for i, n := range leaves {
		rel, err := tr.NodeDone(n)
		if err != nil {
			t.Fatal(err)
		}
		if i < len(leaves)-1 && len(rel) != 0 {
			t.Fatalf("internal released after only %d leaves", i+1)
		}
		if i == len(leaves)-1 {
			if len(rel) != 1 || rel[0].TypeKey != "I" || len(rel[0].Nodes) != 3 {
				t.Fatalf("internal release = %+v", rel)
			}
		}
	}
}

func TestTrackerErrors(t *testing.T) {
	cell := newFakeCell("A")
	tr, _ := NewTracker(1, fakeChain(cell, 2))
	tr.InitialSubgraphs()
	if _, err := tr.NodeDone(5); err == nil {
		t.Fatal("want unknown-node error")
	}
	if _, err := tr.NodeDone(0); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.NodeDone(0); err == nil {
		t.Fatal("want double-completion error")
	}
	// Invalid graph rejected: two nodes reading each other.
	bad := &cellgraph.Graph{}
	row := cellgraph.Lit(tensor.New(1, 1))
	bad.Add(cell, row, cellgraph.Ref(1, 0))
	bad.Add(cell, row, cellgraph.Ref(0, 0))
	if _, err := NewTracker(1, bad); err == nil {
		t.Fatal("want validation error")
	}
}

// TestPropRandomWorkloadDrains drives random request mixes through the full
// scheduler engine and asserts the core invariants (dependency safety,
// exactly-once, drain) checked by miniEngine.
func TestPropRandomWorkloadDrains(t *testing.T) {
	a, b := newFakeCell("A"), newFakeCell("B")
	leaf, internal := newFakeCell("L"), newFakeInternalCell("I")
	f := func(seed uint64, nReq, workers uint8) bool {
		rng := tensor.NewRNG(seed)
		w := int(workers%3) + 1
		n := int(nReq%12) + 1
		s, err := NewScheduler(Config{
			Types: []TypeConfig{
				{Key: "A", MaxBatch: 1 + rng.Intn(8), Priority: 0},
				{Key: "B", MaxBatch: 1 + rng.Intn(8), Priority: 1},
				{Key: "L", MaxBatch: 1 + rng.Intn(8), Priority: 0},
				{Key: "I", MaxBatch: 1 + rng.Intn(8), Priority: 1},
			},
			MaxTasksToSubmit: 1 + rng.Intn(6),
		})
		if err != nil {
			return false
		}
		e := newMiniEngine(t, s, w)
		for i := 0; i < n; i++ {
			switch rng.Intn(3) {
			case 0:
				e.admit(RequestID(i+1), fakeChain(a, 1+rng.Intn(9)))
			case 1:
				e.admit(RequestID(i+1), fakeTwoPhase(a, b, 1+rng.Intn(5), 1+rng.Intn(5)))
			default:
				e.admit(RequestID(i+1), fakeTree(leaf, internal, 1<<rng.Intn(4)))
			}
		}
		e.runToCompletion()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
