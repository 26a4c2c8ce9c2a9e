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

// TestServerChaos is the conservation soak: many goroutines submit mixed
// LSTM/Seq2Seq graphs while a random fault injector throws errors,
// transient errors, panics and latency spikes, and the clients themselves
// add cancellations, deadlines and context timeouts. The invariant: every
// submitted request resolves exactly once — results or a typed error, never
// a hang, never a dead worker — and after Drain the server and scheduler
// are empty.
func TestServerChaos(t *testing.T) {
	m := newTestModel()
	cfg := m.serverConfig(3)
	cfg.RetryBackoff = 200 * time.Microsecond
	faults := NewRandomFaults(2018)
	faults.PError = 0.02
	faults.PTransient = 0.06
	faults.PPanic = 0.02
	faults.PDelay = 0.08
	faults.Delay = 2 * time.Millisecond
	cfg.Faults = faults
	cfg.MaxQueuedRequests = 16 // low enough that shedding happens under the burst
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	const (
		goroutines  = 24
		perOutine   = 5
		submissions = goroutines * perOutine
	)
	var (
		mu        sync.Mutex
		resolved  int // client-observed terminal outcomes (results or error)
		rejected  int // client-observed admission rejections
		badErrors []error
	)
	allowed := func(err error) bool {
		return errors.Is(err, ErrOverloaded) ||
			errors.Is(err, ErrExpired) ||
			errors.Is(err, ErrCancelled) ||
			errors.Is(err, ErrCellPanic) ||
			errors.Is(err, ErrInjected) ||
			errors.Is(err, context.Canceled) ||
			errors.Is(err, context.DeadlineExceeded)
	}

	var wg sync.WaitGroup
	for c := 0; c < goroutines; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := tensor.NewRNG(uint64(1000 + c))
			for i := 0; i < perOutine; i++ {
				// Mixed workload: LSTM chains and Seq2Seq graphs.
				var g *cellgraph.Graph
				var err error
				if rng.Intn(2) == 0 {
					g, err = cellgraph.UnfoldChain(m.lstm, chainInput(uint64(c*100+i), 1+rng.Intn(10)))
				} else {
					src := make([]int, 1+rng.Intn(5))
					for j := range src {
						src[j] = 2 + rng.Intn(tVocab-2)
					}
					g, err = cellgraph.UnfoldSeq2Seq(m.enc, m.dec, src, 1+rng.Intn(4))
				}
				if err != nil {
					t.Error(err)
					return
				}

				record := func(err error) {
					mu.Lock()
					defer mu.Unlock()
					if err != nil && !allowed(err) {
						badErrors = append(badErrors, err)
					}
					resolved++
					if errors.Is(err, ErrOverloaded) || errors.Is(err, ErrDraining) {
						rejected++
					}
				}

				switch rng.Intn(4) {
				case 0: // plain blocking submit
					_, err := srv.Submit(context.Background(), g)
					record(err)
				case 1: // server-side deadline
					dl := time.Now().Add(time.Duration(1+rng.Intn(40)) * time.Millisecond)
					_, err := srv.SubmitOpts(context.Background(), g, SubmitOpts{Deadline: dl})
					record(err)
				case 2: // async + racing client cancellation
					h, err := srv.SubmitAsync(g)
					if err != nil {
						record(err)
						continue
					}
					time.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
					h.Cancel()
					select {
					case <-h.Done():
					case <-time.After(30 * time.Second):
						t.Error("request hung after Cancel")
						return
					}
					_, err = h.Result()
					record(err)
				default: // context timeout
					ctx, cancel := context.WithTimeout(context.Background(), time.Duration(1+rng.Intn(30))*time.Millisecond)
					_, err := srv.Submit(ctx, g)
					cancel()
					record(err)
				}
			}
		}(c)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("chaos run hung: some request never resolved")
	}

	if len(badErrors) > 0 {
		t.Fatalf("untyped errors escaped (%d), first: %v", len(badErrors), badErrors[0])
	}
	if resolved != submissions {
		t.Fatalf("conservation violated: %d submissions, %d resolutions", submissions, resolved)
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		t.Fatalf("Drain after chaos: %v", err)
	}
	st := srv.Stats()
	if st.LiveRequests != 0 || st.QueuedCells != 0 {
		t.Fatalf("backlog after drain: live=%d queued=%d", st.LiveRequests, st.QueuedCells)
	}
	if !srv.SchedulerClean() {
		t.Fatal("scheduler queues not empty after drain")
	}
	// Server-side conservation: every admitted request reached exactly one
	// terminal state, and shed submissions match the client's count.
	o := st.Outcomes
	if o.Pending() != 0 {
		t.Fatalf("outcome conservation violated: %s", o)
	}
	if o.Admitted+o.Rejected != submissions {
		t.Fatalf("admission conservation violated: %s vs %d submissions", o, submissions)
	}
	if o.Rejected != rejected {
		t.Fatalf("server counted %d rejections, clients observed %d", o.Rejected, rejected)
	}
	t.Logf("chaos outcomes: %s; batches=%v quarantined=%v", o, st.BatchSizes, st.Quarantined)
}
