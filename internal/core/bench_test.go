package core

import (
	"sort"
	"testing"

	"batchmaker/internal/cellgraph"
)

// Microbenchmarks for the scheduler hot path: how fast Algorithm 1 can
// assemble batched tasks. The paper's manager runs on the CPU next to
// V100-class GPUs, so a Schedule round must cost far less than a kernel
// (~hundreds of microseconds).

func benchScheduler(b *testing.B, nRequests, chainLen, maxBatch int) {
	cell := newFakeCell("A")
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := NewScheduler(Config{Types: []TypeConfig{{Key: "A", MaxBatch: maxBatch}}})
		if err != nil {
			b.Fatal(err)
		}
		trackers := make([]*Tracker, nRequests)
		for r := 0; r < nRequests; r++ {
			tr, err := NewTracker(RequestID(r+1), fakeChain(cell, chainLen))
			if err != nil {
				b.Fatal(err)
			}
			trackers[r] = tr
			for _, spec := range tr.InitialSubgraphs() {
				if _, err := s.AddSubgraph(spec); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StartTimer()
		// Drain the whole workload through Schedule/TaskCompleted.
		for s.TotalReady() > 0 || s.InflightTasks() > 0 {
			tasks := s.Schedule(0)
			if len(tasks) == 0 {
				b.Fatal("scheduler stalled")
			}
			for _, task := range tasks {
				if err := s.TaskCompleted(task.ID); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkSchedulerDrain_256x24 drains 256 length-24 chains (one saturated
// LSTM round at batch 512 granularity).
func BenchmarkSchedulerDrain_256x24(b *testing.B) {
	benchScheduler(b, 256, 24, 512)
}

// BenchmarkSchedulerDrain_1024x24 drains 1024 chains — a deep backlog.
func BenchmarkSchedulerDrain_1024x24(b *testing.B) {
	benchScheduler(b, 1024, 24, 512)
}

// BenchmarkSchedulerDrain_SmallBatches uses batch 16 to stress task-
// formation frequency.
func BenchmarkSchedulerDrain_SmallBatches(b *testing.B) {
	benchScheduler(b, 128, 24, 16)
}

// BenchmarkPartitionTracker measures admission bookkeeping without unfold —
// validate, partition, release tracking and scheduler registration of every
// subgraph as the request's nodes complete in ID order — which is what the
// simulator pays per simulated request. Run with -benchmem.
func BenchmarkPartitionTracker(b *testing.B) {
	a, dec := newFakeCell("A"), newFakeCell("B")
	leaf, internal := newFakeCell("L"), newFakeInternalCell("I")
	for _, bc := range []struct {
		name string
		g    *cellgraph.Graph
	}{
		{"tree20", fakeTree(leaf, internal, 20)},
		{"seq2seq20x25", fakeTwoPhase(a, dec, 20, 25)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s, err := NewScheduler(Config{Types: []TypeConfig{
				{Key: "A", MaxBatch: 64}, {Key: "B", MaxBatch: 64},
				{Key: "L", MaxBatch: 64}, {Key: "I", MaxBatch: 64},
			}})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				req := RequestID(i + 1)
				tr, err := NewTracker(req, bc.g)
				if err != nil {
					b.Fatal(err)
				}
				specs := tr.InitialSubgraphs()
				for n := 0; ; n++ {
					for _, spec := range specs {
						if _, err := s.AddSubgraph(spec); err != nil {
							b.Fatal(err)
						}
					}
					if n == len(bc.g.Nodes) {
						break
					}
					if specs, err = tr.NodeDone(cellgraph.NodeID(n)); err != nil {
						b.Fatal(err)
					}
				}
				if s.RequestSubgraphs(req) != tr.NumSubgraphs() || !tr.Finished() {
					b.Fatalf("registered %d of %d subgraphs", s.RequestSubgraphs(req), tr.NumSubgraphs())
				}
				s.CancelRequest(req)
			}
		})
	}
}

// BenchmarkSchedulePerTask isolates one Schedule call against a standing
// backlog of ready work.
func BenchmarkSchedulePerTask(b *testing.B) {
	cell := newFakeCell("A")
	s, err := NewScheduler(Config{
		Types:            []TypeConfig{{Key: "A", MaxBatch: 512}},
		MaxTasksToSubmit: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	nextReq := RequestID(0)
	refill := func() {
		for r := 0; r < 1024; r++ {
			nextReq++
			tr, err := NewTracker(nextReq, fakeChain(cell, 64))
			if err != nil {
				b.Fatal(err)
			}
			for _, spec := range tr.InitialSubgraphs() {
				if _, err := s.AddSubgraph(spec); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	refill()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.TotalReady() < 512 {
			b.StopTimer()
			refill()
			b.StartTimer()
		}
		tasks := s.Schedule(0)
		if len(tasks) != 1 {
			b.Fatalf("tasks = %d", len(tasks))
		}
		if err := s.TaskCompleted(tasks[0].ID); err != nil {
			b.Fatal(err)
		}
	}
}

var benchSink *cellgraph.Graph

// BenchmarkFakeChainConstruction baselines graph-building cost itself.
func BenchmarkFakeChainConstruction(b *testing.B) {
	cell := newFakeCell("A")
	for i := 0; i < b.N; i++ {
		benchSink = fakeChain(cell, 24)
	}
}

// BenchmarkSchedulerDrain_LongChains drains a handful of very long chains.
// Every task releases exactly one successor per chain, so this measures the
// per-release cost of updateNodesDependency — the path that used to re-sort
// the whole ready list with sort.Slice on every release and now does an
// ordered merge.
func BenchmarkSchedulerDrain_LongChains(b *testing.B) {
	benchScheduler(b, 8, 1024, 64)
}

// readyReleaseInputs builds a sorted ready remainder of length n and one
// freshly released node that belongs at its end — the steady state of a
// wide subgraph draining through Schedule.
func readyReleaseInputs(n int) (rest []int32, fresh []int32) {
	rest = make([]int32, n)
	for i := range rest {
		rest[i] = int32(i * 2)
	}
	return rest, []int32{int32(2*n - 1)}
}

var readySink []int32

// BenchmarkReadyRelease_Merge is the new release path: drop the node just
// taken and merge the (tiny) fresh batch into the sorted remainder, in place.
// Each op also refills the list, as the baseline below copies it.
func BenchmarkReadyRelease_Merge(b *testing.B) {
	rest, fresh := readyReleaseInputs(512)
	ready := make([]int32, 0, 1+len(rest)+len(fresh))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ready = append(append(ready[:0], -1), rest...)
		readySink = mergeReady(ready, 1, fresh)
	}
}

// BenchmarkReadyRelease_SortSlice is the old release path kept as a
// baseline: copy the remainder, append the fresh nodes, re-sort everything.
func BenchmarkReadyRelease_SortSlice(b *testing.B) {
	rest, fresh := readyReleaseInputs(512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ready := append(append([]int32(nil), rest...), fresh...)
		sort.Slice(ready, func(x, y int) bool { return ready[x] < ready[y] })
		readySink = ready
	}
}
