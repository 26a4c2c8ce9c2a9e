package server

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"batchmaker/internal/cellgraph"
	"batchmaker/internal/journal"
)

// openTestJournal opens a real journal in a temp dir, committing without
// fsync.
func openTestJournal(t *testing.T) (*journal.Journal, string) {
	t.Helper()
	dir := t.TempDir()
	j, err := journal.Open(journal.Options{Dir: dir, Sync: journal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	return j, dir
}

// TestJournalRecordsLifecycle: every admitted request leaves an admit record
// with its payload, and exactly one terminal record matching its outcome.
func TestJournalRecordsLifecycle(t *testing.T) {
	m := newTestModel()
	jnl, dir := openTestJournal(t)
	cfg := m.serverConfig(1)
	cfg.Journal = jnl
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// One completed request.
	g, err := cellgraph.UnfoldChain(m.lstm, chainInput(1, 4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.SubmitOpts(context.Background(), g, SubmitOpts{JournalPayload: []byte(`{"req":"one"}`)}); err != nil {
		t.Fatal(err)
	}

	// One cancelled request. Cancel races the 4000-cell execution; the
	// handle reports which side won, and the journal must agree.
	g2, err := cellgraph.UnfoldChain(m.lstm, chainInput(2, 4000))
	if err != nil {
		t.Fatal(err)
	}
	h, err := srv.SubmitAsyncOpts(g2, SubmitOpts{JournalPayload: []byte(`{"req":"two"}`)})
	if err != nil {
		t.Fatal(err)
	}
	didCancel := h.Cancel()
	<-h.Done()

	srv.Stop()
	jnl.Close()

	rec, err := journal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Pending) != 0 {
		t.Fatalf("pending after clean shutdown = %+v, want none", rec.Pending)
	}
	if len(rec.Terminal) != 2 {
		t.Fatalf("terminal records = %d, want 2", len(rec.Terminal))
	}
	var completed, cancelled int
	for _, tr := range rec.Terminal {
		switch tr.Outcome {
		case journal.OutcomeCompleted:
			completed++
		case journal.OutcomeCancelled:
			cancelled++
		}
	}
	wantCompleted, wantCancelled := 2, 0
	if didCancel {
		wantCompleted, wantCancelled = 1, 1
	}
	if completed != wantCompleted || cancelled != wantCancelled {
		t.Fatalf("outcomes: %d completed, %d cancelled; want %d/%d (terminals: %+v)",
			completed, cancelled, wantCompleted, wantCancelled, rec.Terminal)
	}
	if rec.DuplicateAdmits != 0 || rec.DuplicateTerminals != 0 || rec.OrphanTerminals != 0 {
		t.Fatalf("journal anomalies: %+v", rec)
	}
}

// TestJournalReplayIDSkipsAdmitRecord: a replayed submission keeps its
// original ID, floors the allocator, and does not re-journal the admit.
func TestJournalReplayIDSkipsAdmitRecord(t *testing.T) {
	m := newTestModel()
	jnl, dir := openTestJournal(t)
	cfg := m.serverConfig(1)
	cfg.Journal = jnl
	cfg.FirstRequestID = 100
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	g, err := cellgraph.UnfoldChain(m.lstm, chainInput(3, 4))
	if err != nil {
		t.Fatal(err)
	}
	h, err := srv.SubmitAsyncOpts(g, SubmitOpts{ReplayID: 42})
	if err != nil {
		t.Fatal(err)
	}
	if h.ID() != 42 {
		t.Fatalf("replayed ID = %d, want 42", h.ID())
	}
	<-h.Done()

	// A fresh submission must allocate above FirstRequestID.
	g2, _ := cellgraph.UnfoldChain(m.lstm, chainInput(4, 4))
	h2, err := srv.SubmitAsync(g2)
	if err != nil {
		t.Fatal(err)
	}
	if h2.ID() <= 100 {
		t.Fatalf("fresh ID = %d, want > FirstRequestID 100", h2.ID())
	}
	<-h2.Done()
	srv.Stop()
	jnl.Close()

	rec, err := journal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Replayed request: terminal only (its admit lives in the "old"
	// journal, not this one) → shows up as an orphan terminal here, which
	// is exactly what a post-restart journal looks like.
	if _, ok := rec.Terminal[42]; !ok {
		t.Fatal("replayed request's terminal record missing")
	}
	for _, p := range rec.Pending {
		if p.ID == 42 {
			t.Fatal("replayed request has an admit record in the new journal")
		}
	}
	if _, ok := rec.Terminal[uint64(h2.ID())]; !ok {
		t.Fatalf("fresh request %d terminal record missing", h2.ID())
	}
}

// TestJournalReplayIDFloorsAllocator: a replay ID above the configured
// floor pushes the allocator past it — fresh IDs never collide with
// replayed ones even when FirstRequestID was set too low.
func TestJournalReplayIDFloorsAllocator(t *testing.T) {
	m := newTestModel()
	cfg := m.serverConfig(1)
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()

	g, _ := cellgraph.UnfoldChain(m.lstm, chainInput(5, 2))
	h, err := srv.SubmitAsyncOpts(g, SubmitOpts{ReplayID: 500})
	if err != nil {
		t.Fatal(err)
	}
	<-h.Done()
	g2, _ := cellgraph.UnfoldChain(m.lstm, chainInput(6, 2))
	h2, err := srv.SubmitAsync(g2)
	if err != nil {
		t.Fatal(err)
	}
	if h2.ID() <= 500 {
		t.Fatalf("fresh ID %d collides with replay range (floor 500)", h2.ID())
	}
	<-h2.Done()
}

// blockedJournal counts appends but never resolves admit waits until
// released — it would deadlock a server that let the request processor
// (rather than the caller) wait for durability.
type blockedJournal struct {
	admits chan uint64
}

func (b *blockedJournal) AppendAdmit(id uint64, payload []byte, deadlineNs int64) <-chan error {
	b.admits <- id
	done := make(chan error, 1)
	done <- errors.New("injected: journal unavailable")
	return done
}
func (b *blockedJournal) AppendCancel(id uint64)                                     {}
func (b *blockedJournal) AppendTerminal(id uint64, o journal.Outcome, reason string) {}

// TestDegradedJournalNeverFailsAdmission: an erroring journal must not turn
// into submission errors — durability degrades, service does not.
func TestDegradedJournalNeverFailsAdmission(t *testing.T) {
	m := newTestModel()
	bj := &blockedJournal{admits: make(chan uint64, 16)}
	cfg := m.serverConfig(1)
	cfg.Journal = bj
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()

	for i := 0; i < 4; i++ {
		g, err := cellgraph.UnfoldChain(m.lstm, chainInput(uint64(10+i), 3))
		if err != nil {
			t.Fatal(err)
		}
		res, err := srv.Submit(context.Background(), g)
		if err != nil {
			t.Fatalf("submit %d failed with degraded journal: %v", i, err)
		}
		if res["h"] == nil {
			t.Fatalf("submit %d returned no results", i)
		}
	}
	if len(bj.admits) != 4 {
		t.Fatalf("journal saw %d admits, want 4", len(bj.admits))
	}
}

// TestJournalAdmitPrecedesTerminal: even for instantly-resolving requests
// the journal FIFO carries admit before terminal (recovery depends on it).
type orderJournal struct {
	events chan string
}

func (o *orderJournal) AppendAdmit(id uint64, payload []byte, deadlineNs int64) <-chan error {
	o.events <- fmt.Sprintf("admit-%d", id)
	done := make(chan error, 1)
	done <- nil
	return done
}
func (o *orderJournal) AppendCancel(id uint64) { o.events <- fmt.Sprintf("cancel-%d", id) }
func (o *orderJournal) AppendTerminal(id uint64, oc journal.Outcome, reason string) {
	o.events <- fmt.Sprintf("terminal-%d-%s", id, oc)
}

func TestJournalAdmitPrecedesTerminal(t *testing.T) {
	m := newTestModel()
	oj := &orderJournal{events: make(chan string, 64)}
	cfg := m.serverConfig(1)
	cfg.Journal = oj
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	for i := 0; i < n; i++ {
		g, err := cellgraph.UnfoldChain(m.lstm, chainInput(uint64(20+i), 1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Submit(context.Background(), g); err != nil {
			t.Fatal(err)
		}
	}
	srv.Stop()
	close(oj.events)
	admitted := make(map[string]bool)
	for ev := range oj.events {
		var id uint64
		if _, err := fmt.Sscanf(ev, "admit-%d", &id); err == nil {
			admitted[fmt.Sprintf("%d", id)] = true
			continue
		}
		var oc string
		if _, err := fmt.Sscanf(ev, "terminal-%d-%s", &id, &oc); err == nil {
			if !admitted[fmt.Sprintf("%d", id)] {
				t.Fatalf("terminal for %d journaled before its admit", id)
			}
		}
	}
	if len(admitted) != n {
		t.Fatalf("admit records = %d, want %d", len(admitted), n)
	}
}

// The real journal must satisfy the server's hook interface.
var _ RequestJournal = (*journal.Journal)(nil)
