package server

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"batchmaker/internal/cellgraph"
	"batchmaker/internal/tensor"
)

// TestPipelineStressMultiWorker soaks the staged pipeline with Workers=4:
// mixed LSTM-chain / Seq2Seq / TreeLSTM traffic submitted concurrently while
// clients cancel live requests, attach deadlines, and a fault injector throws
// latency spikes, hard errors and panics. It asserts the
// pipeline's three core invariants at once:
//
//  1. conservation — every submission resolves exactly once, with a typed
//     error or results, and the server-side outcome ledger matches;
//  2. transparency — every request that completes successfully produces
//     outputs bit-identical to unbatched sequential execution, despite
//     cross-request batching and worker-buffer reuse;
//  3. clean drain — after Drain the backlog gauges and the scheduler's
//     bookkeeping are empty.
//
// Run under -race this also exercises the stage hand-offs (admission and
// retirement under the manager's lock, dispatch channels, shared request
// state).
func TestPipelineStressMultiWorker(t *testing.T) {
	m := newTestModel()
	cfg := m.serverConfig(4)
	faults := NewRandomFaults(42)
	faults.PDelay = 0.10
	faults.Delay = time.Millisecond
	faults.PError = 0.03
	faults.PPanic = 0.02
	cfg.Faults = faults
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Precompute every job's graph builder and its sequential reference
	// results, so the comparison below is against ground truth computed with
	// no batching at all.
	type job struct {
		build func() *cellgraph.Graph
		want  map[string]*tensor.Tensor
	}
	var jobs []job
	words := tensor.NewRNG(7)
	addJob := func(build func() *cellgraph.Graph) {
		want, err := cellgraph.ExecuteSequential(build())
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job{build: build, want: want})
	}
	for i := 0; i < 20; i++ {
		seed, n := uint64(i), 1+i%9
		addJob(func() *cellgraph.Graph {
			g, err := cellgraph.UnfoldChain(m.lstm, chainInput(seed, n))
			if err != nil {
				panic(err)
			}
			return g
		})
	}
	for i := 0; i < 14; i++ {
		src := make([]int, 1+i%5)
		for j := range src {
			src[j] = 2 + words.Intn(tVocab-2)
		}
		dst := 1 + i%4
		addJob(func() *cellgraph.Graph {
			g, err := cellgraph.UnfoldSeq2Seq(m.enc, m.dec, src, dst)
			if err != nil {
				panic(err)
			}
			return g
		})
	}
	for i := 0; i < 10; i++ {
		tree, err := cellgraph.CompleteBinaryTree(1<<(1+i%3), tVocab)
		if err != nil {
			t.Fatal(err)
		}
		addJob(func() *cellgraph.Graph {
			g, err := cellgraph.UnfoldTree(m.leaf, m.internal, tree)
			if err != nil {
				panic(err)
			}
			return g
		})
	}

	const rounds = 3 // every job submitted this many times
	submissions := rounds * len(jobs)
	allowed := func(err error) bool {
		return errors.Is(err, ErrExpired) ||
			errors.Is(err, ErrCancelled) ||
			errors.Is(err, ErrCellPanic) ||
			errors.Is(err, ErrInjected) ||
			errors.Is(err, context.DeadlineExceeded)
	}

	var (
		mu        sync.Mutex
		resolved  int
		completed int
		badErrors []error
	)
	var wg sync.WaitGroup
	for round := 0; round < rounds; round++ {
		for i := range jobs {
			wg.Add(1)
			go func(round, i int) {
				defer wg.Done()
				j := jobs[i]
				rng := tensor.NewRNG(uint64(round*1000 + i))
				var (
					got map[string]*tensor.Tensor
					err error
				)
				switch rng.Intn(4) {
				case 0: // racing client cancellation
					h, herr := srv.SubmitAsync(j.build())
					if herr != nil {
						err = herr
						break
					}
					time.Sleep(time.Duration(rng.Intn(2)) * time.Millisecond)
					h.Cancel()
					<-h.Done()
					got, err = h.Result()
				case 1: // tight server-side deadline
					dl := time.Now().Add(time.Duration(1+rng.Intn(20)) * time.Millisecond)
					got, err = srv.SubmitOpts(context.Background(), j.build(), SubmitOpts{Deadline: dl})
				default: // plain blocking submit
					got, err = srv.Submit(context.Background(), j.build())
				}
				mu.Lock()
				defer mu.Unlock()
				resolved++
				if err != nil {
					if !allowed(err) {
						badErrors = append(badErrors, err)
					}
					return
				}
				completed++
				for name, w := range j.want {
					if !got[name].Equal(w) {
						t.Errorf("job %d output %q: pipelined result differs from sequential", i, name)
						return
					}
				}
			}(round, i)
		}
	}
	waitDone := make(chan struct{})
	go func() { wg.Wait(); close(waitDone) }()
	select {
	case <-waitDone:
	case <-time.After(120 * time.Second):
		t.Fatal("stress run hung: some request never resolved")
	}

	if len(badErrors) > 0 {
		t.Fatalf("untyped errors escaped (%d), first: %v", len(badErrors), badErrors[0])
	}
	if resolved != submissions {
		t.Fatalf("conservation violated: %d submissions, %d resolutions", submissions, resolved)
	}
	if completed == 0 {
		t.Fatal("no request completed successfully; transparency not exercised")
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		t.Fatalf("Drain after stress: %v", err)
	}
	st := srv.Stats()
	if st.LiveRequests != 0 || st.QueuedCells != 0 {
		t.Fatalf("backlog after drain: live=%d queued=%d", st.LiveRequests, st.QueuedCells)
	}
	if !srv.SchedulerClean() {
		t.Fatal("scheduler queues not empty after drain")
	}
	o := st.Outcomes
	if o.Pending() != 0 {
		t.Fatalf("outcome conservation violated: %s", o)
	}
	if o.Admitted+o.Rejected != submissions {
		t.Fatalf("admission conservation violated: %s vs %d submissions", o, submissions)
	}

	// Per-worker accounting: the worker stats must tile the totals, and the
	// load must actually have been spread across workers.
	if len(st.Workers) != 4 {
		t.Fatalf("want 4 worker stats, got %d", len(st.Workers))
	}
	workerTasks, busy := 0, 0
	for w, ws := range st.Workers {
		workerTasks += ws.TasksRun
		if ws.TasksRun > 0 {
			busy++
		}
		if ws.QueueDepth != 0 {
			t.Fatalf("worker %d queue not drained: depth=%d", w, ws.QueueDepth)
		}
	}
	if workerTasks != st.TasksRun {
		t.Fatalf("per-worker tasks sum to %d, server ran %d", workerTasks, st.TasksRun)
	}
	if busy < 2 {
		t.Fatalf("pipeline used %d of 4 workers; no parallelism", busy)
	}
	if st.DispatchRounds == 0 {
		t.Fatal("scheduler loop recorded no dispatch rounds")
	}
	t.Logf("stress outcomes: %s; completed=%d; dispatch p50=%v p99=%v",
		o, completed, st.DispatchP50, st.DispatchP99)
}
