package core_test

import (
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"batchmaker/internal/conformance"
	"batchmaker/internal/core"
)

// replayDigest pushes one seeded conformance workload (real unfolded graphs:
// LSTM chains, TreeLSTM trees, Seq2Seq) through a tracker per request and one
// scheduler with a no-op executor — two workers taking turns, at most eight
// requests live — and folds every task, in order, into a digest: its type,
// batch size, worker and (request, node) rows. prepare, when non-nil, sees
// the scheduler before the first request.
func replayDigest(t *testing.T, seed uint64, prepare func(*core.Scheduler)) (digest uint64, tasks, cells int) {
	t.Helper()
	m := conformance.NewModel(42)
	w := conformance.Generate(seed, conformance.GenConfig{
		Requests: 24, ChainWeight: 3, TreeWeight: 2, Seq2SeqWeight: 2,
		MinLen: 1, MaxLen: 10, MaxLeaves: 10, MeanGap: 2 * time.Millisecond,
	})
	sched, err := core.NewScheduler(core.Config{
		MaxTasksToSubmit: 3,
		Types: []core.TypeConfig{
			{Key: m.LSTM.TypeKey(), MaxBatch: 8},
			{Key: m.Enc.TypeKey(), MaxBatch: 8},
			{Key: m.Dec.TypeKey(), MaxBatch: 8, Priority: 1},
			{Key: m.Leaf.TypeKey(), MaxBatch: 8},
			{Key: m.Internal.TypeKey(), MaxBatch: 8, Priority: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if prepare != nil {
		prepare(sched)
	}
	add := func(specs []core.SubgraphSpec) {
		for _, spec := range specs {
			if _, err := sched.AddSubgraph(spec); err != nil {
				t.Fatal(err)
			}
		}
	}
	h := fnv.New64a()
	trackers := map[core.RequestID]*core.Tracker{}
	next, idle := 0, 0
	for worker := core.WorkerID(0); next < len(w.Reqs) || len(trackers) > 0; worker = 1 - worker {
		for len(trackers) < 8 && next < len(w.Reqs) {
			g, err := m.BuildGraph(w.Reqs[next])
			if err != nil {
				t.Fatal(err)
			}
			id := core.RequestID(next + 1)
			next++
			tr, err := core.NewTracker(id, g)
			if err != nil {
				t.Fatal(err)
			}
			trackers[id] = tr
			add(tr.InitialSubgraphs())
		}
		batch := sched.Schedule(worker)
		if len(batch) == 0 {
			if idle++; idle > 1 {
				t.Fatalf("seed %d: neither worker has work with %d requests live", seed, len(trackers))
			}
			continue
		}
		idle = 0
		for _, task := range batch {
			tasks++
			cells += len(task.Nodes)
			fmt.Fprintf(h, "%s/%d@%d:", task.TypeKey, len(task.Nodes), worker)
			for _, ref := range task.Nodes {
				fmt.Fprintf(h, "%d.%d,", ref.Req, ref.Node)
				tr := trackers[ref.Req]
				specs, err := tr.NodeDone(ref.Node)
				if err != nil {
					t.Fatal(err)
				}
				add(specs)
				if tr.Finished() {
					delete(trackers, ref.Req)
				}
			}
			if err := sched.TaskCompleted(task.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	return h.Sum64(), tasks, cells
}

// replayRecords are the task-sequence digests of the three CI conformance
// seeds, recorded with replayDigest's loop at commit 9e0b9d9 (it uses only
// API that commit has), on the map-based tracker and scheduler.
var replayRecords = []struct {
	seed         uint64
	digest       uint64
	tasks, cells int
}{
	{1000, 0x7d632b3171cabc09, 71, 198},
	{1001, 0x82a47f8339041221, 92, 253},
	{1002, 0xf118f41175af43f9, 54, 183},
}

func checkReplay(t *testing.T, prepare func(*core.Scheduler)) {
	t.Helper()
	for _, want := range replayRecords {
		digest, tasks, cells := replayDigest(t, want.seed, prepare)
		if digest != want.digest || tasks != want.tasks || cells != want.cells {
			t.Errorf("seed %d: digest %#x over %d tasks / %d cells, recorded %#x over %d / %d",
				want.seed, digest, tasks, cells, want.digest, want.tasks, want.cells)
		}
	}
}

// TestReplayTaskSequenceUnchanged pins the scheduler's output to the
// recorded digests. A change that alters subgraph membership, order or
// release order moves them.
func TestReplayTaskSequenceUnchanged(t *testing.T) { checkReplay(t, nil) }

// TestReplayRecycledRecords replays the same seeds on schedulers whose free
// lists start full of garbage records, so every task, subgraph record and
// byReq list the replay takes is a reused one that must be re-initialized
// field by field: the digests may not move.
func TestReplayRecycledRecords(t *testing.T) {
	checkReplay(t, func(s *core.Scheduler) { core.DirtyFreeLists(s, 256) })
}
