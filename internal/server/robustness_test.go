package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"batchmaker/internal/cellgraph"
	"batchmaker/internal/core"
	"batchmaker/internal/journal"
	"batchmaker/internal/obsv"
	"batchmaker/internal/policy"
)

// fnInjector adapts a function to FaultInjector for deterministic tests.
type fnInjector func(typeKey string, batch int) FaultDecision

func (f fnInjector) Inject(typeKey string, batch int) FaultDecision { return f(typeKey, batch) }

// delayInjector slows every step down, keeping requests live long enough
// for admission/cancellation tests to observe them.
func delayInjector(d time.Duration) FaultInjector {
	return fnInjector(func(string, int) FaultDecision {
		return FaultDecision{Kind: FaultDelay, Delay: d}
	})
}

// onceInjector injects the decision on the first execution only.
type onceInjector struct {
	mu       sync.Mutex
	fired    bool
	decision FaultDecision
}

func (o *onceInjector) Inject(string, int) FaultDecision {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.fired {
		return FaultDecision{}
	}
	o.fired = true
	return o.decision
}

// hasRecord reports whether any of the server's span rings holds a record
// of the given kind.
func hasRecord(srv *Server, kind obsv.Kind) bool {
	for _, rec := range srv.Observer().Snapshot() {
		if rec.Kind == kind {
			return true
		}
	}
	return false
}

// waitIdle polls until the scheduler drained and no tasks are in flight.
func waitIdle(t *testing.T, srv *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if srv.SchedulerClean() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("scheduler never drained")
}

func TestServerOverloadedByRequests(t *testing.T) {
	m := newTestModel()
	cfg := m.serverConfig(1)
	cfg.MaxQueuedRequests = 2
	cfg.Faults = delayInjector(30 * time.Millisecond)
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()

	var handles []*Handle
	for i := 0; i < 2; i++ {
		g, _ := cellgraph.UnfoldChain(m.lstm, chainInput(uint64(i), 4))
		h, err := srv.SubmitAsync(g)
		if err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
		handles = append(handles, h)
	}
	g, _ := cellgraph.UnfoldChain(m.lstm, chainInput(9, 4))
	if _, err := srv.SubmitAsync(g); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("want ErrOverloaded, got %v", err)
	}
	for _, h := range handles {
		<-h.Done()
		if _, err := h.Result(); err != nil {
			t.Fatalf("admitted request failed: %v", err)
		}
	}
	st := srv.Stats()
	if st.Outcomes.Rejected != 1 {
		t.Fatalf("Rejected = %d, want 1: %s", st.Outcomes.Rejected, st.Outcomes)
	}
	if !hasRecord(srv, obsv.KindReject) {
		t.Fatal("no reject record in the span rings")
	}
	// Shedding is transient: with the queue drained, admission reopens.
	g2, _ := cellgraph.UnfoldChain(m.lstm, chainInput(10, 2))
	if _, err := srv.Submit(context.Background(), g2); err != nil {
		t.Fatalf("submission after backlog drained: %v", err)
	}
}

func TestServerDeadlineExpiresQueuedRequest(t *testing.T) {
	m := newTestModel()
	cfg := m.serverConfig(1)
	cfg.Faults = delayInjector(20 * time.Millisecond)
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()

	const n = 50
	g, _ := cellgraph.UnfoldChain(m.lstm, chainInput(1, n))
	_, err = srv.SubmitOpts(context.Background(), g, SubmitOpts{Deadline: time.Now().Add(50 * time.Millisecond)})
	if !errors.Is(err, ErrExpired) {
		t.Fatalf("want ErrExpired, got %v", err)
	}
	waitIdle(t, srv)
	st := srv.Stats()
	if st.Outcomes.Expired != 1 {
		t.Fatalf("Expired = %d, want 1: %s", st.Outcomes.Expired, st.Outcomes)
	}
	if st.CellsRun >= n {
		t.Fatalf("expired request ran all %d cells", n)
	}
	// No task executes its nodes after expiry: the cell counter stays put.
	after := srv.Stats().CellsRun
	time.Sleep(100 * time.Millisecond)
	if got := srv.Stats().CellsRun; got != after {
		t.Fatalf("cells kept executing after expiry: %d -> %d", after, got)
	}
	if !hasRecord(srv, obsv.KindExpire) {
		t.Fatal("no expire record in the span rings")
	}
}

func TestServerDeadlineDeadOnArrival(t *testing.T) {
	m := newTestModel()
	srv, err := New(m.serverConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	g, _ := cellgraph.UnfoldChain(m.lstm, chainInput(1, 3))
	_, err = srv.SubmitOpts(context.Background(), g, SubmitOpts{Deadline: time.Now().Add(-time.Second)})
	if !errors.Is(err, ErrExpired) {
		t.Fatalf("want ErrExpired for dead-on-arrival request, got %v", err)
	}
	if st := srv.Stats(); st.Outcomes.Admitted != 0 || st.Outcomes.Rejected != 1 {
		t.Fatalf("dead-on-arrival not shed: %s", st.Outcomes)
	}
}

func TestServerCancelPurgesQueuedWork(t *testing.T) {
	m := newTestModel()
	cfg := m.serverConfig(1)
	cfg.Faults = delayInjector(15 * time.Millisecond)
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()

	const n = 100
	g, _ := cellgraph.UnfoldChain(m.lstm, chainInput(1, n))
	h, err := srv.SubmitAsync(g)
	if err != nil {
		t.Fatal(err)
	}
	// Let a few cells execute, then cancel.
	for srv.Stats().CellsRun == 0 {
		time.Sleep(time.Millisecond)
	}
	if !h.Cancel() {
		t.Fatal("Cancel returned false for a live request")
	}
	if h.Cancel() {
		t.Fatal("second Cancel returned true")
	}
	<-h.Done()
	if _, err := h.Result(); !errors.Is(err, ErrCancelled) {
		t.Fatalf("want ErrCancelled, got %v", err)
	}
	waitIdle(t, srv)
	st := srv.Stats()
	if st.Outcomes.Cancelled != 1 || st.LiveRequests != 0 {
		t.Fatalf("bad outcome accounting: %s live=%d", st.Outcomes, st.LiveRequests)
	}
	if !hasRecord(srv, obsv.KindCancel) {
		t.Fatal("no cancel record in the span rings")
	}
	if st.CellsRun >= n {
		t.Fatalf("cancelled request ran all %d cells", n)
	}
	after := st.CellsRun
	time.Sleep(80 * time.Millisecond)
	if got := srv.Stats().CellsRun; got != after {
		t.Fatalf("cells kept executing after cancellation: %d -> %d", after, got)
	}
}

func TestServerSubmitContextCancelPropagates(t *testing.T) {
	m := newTestModel()
	cfg := m.serverConfig(1)
	cfg.Faults = delayInjector(15 * time.Millisecond)
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	g, _ := cellgraph.UnfoldChain(m.lstm, chainInput(1, 100))
	go func() {
		_, err := srv.Submit(ctx, g)
		errCh <- err
	}()
	for srv.Stats().CellsRun == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	waitIdle(t, srv)
	// Cancellation reached the scheduler: the request is gone and its
	// remaining 100-cell backlog no longer occupies batch slots.
	st := srv.Stats()
	if st.Outcomes.Cancelled != 1 || st.LiveRequests != 0 || st.QueuedCells != 0 {
		t.Fatalf("cancellation did not propagate: %s live=%d queued=%d", st.Outcomes, st.LiveRequests, st.QueuedCells)
	}
	if st.CellsRun >= 100 {
		t.Fatal("cancelled request ran to completion")
	}
}

func TestServerDrainGraceful(t *testing.T) {
	m := newTestModel()
	cfg := m.serverConfig(2)
	cfg.Faults = delayInjector(10 * time.Millisecond)
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var handles []*Handle
	for i := 0; i < 4; i++ {
		g, _ := cellgraph.UnfoldChain(m.lstm, chainInput(uint64(i), 5))
		h, err := srv.SubmitAsync(g)
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	drainErr := make(chan error, 1)
	go func() { drainErr <- srv.Drain(context.Background()) }()

	// New work is rejected while draining (poll: Drain sets the flag
	// asynchronously).
	deadline := time.Now().Add(2 * time.Second)
	for {
		g, _ := cellgraph.UnfoldChain(m.lstm, chainInput(99, 2))
		h, err := srv.SubmitAsync(g)
		if errors.Is(err, ErrDraining) {
			break
		}
		if err == nil {
			// The probe won the race against the drain flag; it is a
			// normal admitted request and must drain with the rest.
			handles = append(handles, h)
		} else if errors.Is(err, ErrStopped) || time.Now().After(deadline) {
			t.Fatalf("never observed ErrDraining (last err %v)", err)
		}
		time.Sleep(time.Millisecond)
	}

	if err := <-drainErr; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	// Every in-flight request finished with results, none was torn down.
	for i, h := range handles {
		select {
		case <-h.Done():
		default:
			t.Fatalf("handle %d unresolved after Drain", i)
		}
		if _, err := h.Result(); err != nil {
			t.Fatalf("handle %d: %v", i, err)
		}
	}
	st := srv.Stats()
	if st.LiveRequests != 0 || st.Outcomes.Completed != len(handles) {
		t.Fatalf("drain accounting: %s live=%d handles=%d", st.Outcomes, st.LiveRequests, len(handles))
	}
	if !srv.SchedulerClean() {
		t.Fatal("scheduler not clean after drain")
	}
}

func TestServerDrainTimeoutFallsBackToStop(t *testing.T) {
	m := newTestModel()
	cfg := m.serverConfig(1)
	cfg.Faults = delayInjector(50 * time.Millisecond)
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	g, _ := cellgraph.UnfoldChain(m.lstm, chainInput(1, 200))
	h, err := srv.SubmitAsync(g)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	if err := srv.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded from bounded drain, got %v", err)
	}
	<-h.Done()
	if _, err := h.Result(); !errors.Is(err, ErrStopped) {
		t.Fatalf("want ErrStopped after drain fallback, got %v", err)
	}
	if !srv.SchedulerClean() {
		t.Fatal("scheduler not clean after drain fallback")
	}
}

func TestServerPanicRecoveredWorkerSurvives(t *testing.T) {
	m := newTestModel()
	cfg := m.serverConfig(1)
	cfg.Faults = &onceInjector{decision: FaultDecision{Kind: FaultPanic}}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()

	g, _ := cellgraph.UnfoldChain(m.lstm, chainInput(1, 3))
	_, err = srv.Submit(context.Background(), g)
	if !errors.Is(err, ErrCellPanic) {
		t.Fatalf("want ErrCellPanic, got %v", err)
	}
	// The worker recovered: the next request completes normally.
	g2, _ := cellgraph.UnfoldChain(m.lstm, chainInput(2, 3))
	if _, err := srv.Submit(context.Background(), g2); err != nil {
		t.Fatalf("worker died after panic: %v", err)
	}
	st := srv.Stats()
	if st.Outcomes.RecoveredPanics != 1 {
		t.Fatalf("RecoveredPanics = %d, want 1", st.Outcomes.RecoveredPanics)
	}
	if st.Quarantined[m.lstm.TypeKey()] != 1 {
		t.Fatalf("quarantine counter = %v, want 1 for %s", st.Quarantined, m.lstm.TypeKey())
	}
	if !hasRecord(srv, obsv.KindPanic) {
		t.Fatal("no panic record in the span rings")
	}
}

// TestServerPartialAdmissionRollsBack covers the admission leak: when a
// later AddSubgraph of a multi-subgraph request fails, earlier subgraphs
// must not stay registered in the scheduler without an owning request.
func TestServerPartialAdmissionRollsBack(t *testing.T) {
	m := newTestModel()
	srv, err := New(m.serverConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()

	// A tree graph partitions into multiple leaf subgraphs with no external
	// deps, so InitialSubgraphs yields several specs; fail the second.
	calls := 0
	srv.setAdmitFault(func(core.SubgraphSpec) error {
		calls++
		if calls == 2 {
			return fmt.Errorf("injected admission failure")
		}
		return nil
	})

	tree, err := cellgraph.CompleteBinaryTree(4, tVocab)
	if err != nil {
		t.Fatal(err)
	}
	g, err := cellgraph.UnfoldTree(m.leaf, m.internal, tree)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.SubmitAsync(g); err == nil {
		t.Fatal("want injected admission failure")
	}
	if calls < 2 {
		t.Fatalf("admission fault fired %d times; need a multi-subgraph graph", calls)
	}
	srv.setAdmitFault(nil)
	_, orphans, ready := srv.schedulerGauges()
	if orphans != 0 || ready != 0 {
		t.Fatalf("partial admission leaked %d subgraphs (%d ready nodes)", orphans, ready)
	}
	// The server still serves cleanly afterwards.
	g2, err := cellgraph.UnfoldTree(m.leaf, m.internal, tree)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit(context.Background(), g2); err != nil {
		t.Fatal(err)
	}
}

// TestServerStopMidExecutionLeavesSchedulerClean covers the Stop/execTask
// race: a task mid-Step at stop time must still be completed against the
// scheduler so pins and in-flight counters release.
func TestServerStopMidExecutionLeavesSchedulerClean(t *testing.T) {
	m := newTestModel()
	cfg := m.serverConfig(2)
	cfg.Faults = delayInjector(20 * time.Millisecond)
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var handles []*Handle
	for i := 0; i < 6; i++ {
		g, _ := cellgraph.UnfoldChain(m.lstm, chainInput(uint64(i), 50))
		h, err := srv.SubmitAsync(g)
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	// Wait until execution is underway so tasks are genuinely mid-Step.
	for srv.Stats().CellsRun == 0 {
		time.Sleep(time.Millisecond)
	}
	srv.Stop()
	for i, h := range handles {
		select {
		case <-h.Done():
		default:
			t.Fatalf("handle %d unresolved after Stop", i)
		}
		if _, err := h.Result(); !errors.Is(err, ErrStopped) {
			t.Fatalf("handle %d: want ErrStopped, got %v", i, err)
		}
	}
	if !srv.SchedulerClean() {
		inflight, live, ready := srv.schedulerGauges()
		t.Fatalf("scheduler dirty after Stop: inflight=%d live=%d ready=%d",
			inflight, live, ready)
	}
	if st := srv.Stats(); st.LiveRequests != 0 || st.QueuedCells != 0 {
		t.Fatalf("request accounting dirty after Stop: live=%d queued=%d", st.LiveRequests, st.QueuedCells)
	}
}

// TestServerStartsOnlyWorkers: the manager is a monitor that callers,
// workers and the deadline timer enter under its lock, not a goroutine, so
// a server with two workers runs exactly two goroutines, and Stop joins
// both.
func TestServerStartsOnlyWorkers(t *testing.T) {
	m := newTestModel()
	// Let goroutines of earlier tests finish exiting before the baseline.
	base := runtime.NumGoroutine()
	for settle := time.Now().Add(2 * time.Second); time.Now().Before(settle); {
		time.Sleep(5 * time.Millisecond)
		n := runtime.NumGoroutine()
		if n == base {
			break
		}
		base = n
	}
	srv, err := New(m.serverConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	started := runtime.NumGoroutine() - base
	srv.Stop()
	if started != 2 {
		t.Fatalf("New with 2 workers started %d goroutines, want 2 (the workers)", started)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after Stop, %d before New", n, base)
	}
}

// TestStopLeavesNoGoroutines: after Drain and Stop (and journal.Close) every
// goroutine the server and its journal started has exited, whichever
// optional subsystem — policy layer, journal — is switched on.
func TestStopLeavesNoGoroutines(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(*testing.T, *Config)
		// deadline, when nonzero, gives every request a deadline this far
		// out, so the deadline timer is armed when Stop runs.
		deadline time.Duration
	}{
		{"workers", func(*testing.T, *Config) {}, 0},
		{"policy", func(_ *testing.T, c *Config) {
			// The 40 cells submitted over two workers, priced at any
			// plausible cell time, stay far inside the SLA: this row is
			// about goroutines, not shedding.
			c.Policy = policy.Config{Mode: policy.ModeFull, SLA: 50 * time.Millisecond}
		}, 0},
		{"journal", func(t *testing.T, c *Config) {
			jnl, err := journal.Open(journal.Options{Dir: t.TempDir(), Sync: journal.SyncBatch})
			if err != nil {
				t.Fatal(err)
			}
			c.Journal = jnl
		}, 0},
		{"deadlines", func(*testing.T, *Config) {}, time.Hour},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newTestModel()
			base := runtime.NumGoroutine()

			cfg := m.serverConfig(2)
			tc.set(t, &cfg)
			srv, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var handles []*Handle
			for i := 0; i < 8; i++ {
				g, err := cellgraph.UnfoldChain(m.lstm, chainInput(uint64(i), 5))
				if err != nil {
					t.Fatal(err)
				}
				opts := SubmitOpts{JournalPayload: []byte("{}")}
				if tc.deadline > 0 {
					opts.Deadline = time.Now().Add(tc.deadline)
				}
				h, err := srv.SubmitAsyncOpts(g, opts)
				if err != nil {
					t.Fatal(err)
				}
				handles = append(handles, h)
			}
			if err := srv.Drain(context.Background()); err != nil {
				t.Fatal(err)
			}
			for i, h := range handles {
				if _, err := h.Result(); err != nil {
					t.Fatalf("request %d: %v", i, err)
				}
			}
			srv.Stop()
			if jnl, ok := cfg.Journal.(*journal.Journal); ok {
				jnl.Close()
			}
			// Stop disarmed the deadline timer: it can neither start a
			// goroutine later nor expire anything after Stop.
			if srv.m.timer.Stop() {
				t.Fatal("deadline timer still armed after Stop")
			}
			if n := srv.Stats().Outcomes.Expired; n != 0 {
				t.Fatalf("%d expiry records after Stop", n)
			}

			// A goroutine that Stop has joined may still be exiting.
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > base {
				buf := make([]byte, 1<<20)
				t.Fatalf("%d goroutines after Drain+Stop, %d before New:\n%s", n, base, buf[:runtime.Stack(buf, true)])
			}
		})
	}
}
