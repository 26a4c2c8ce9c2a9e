package conformance

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"batchmaker/internal/core"
	"batchmaker/internal/journal"
	"batchmaker/internal/server"
	"batchmaker/internal/tensor"
)

// CrashOpts configures one kill/restart conformance run.
type CrashOpts struct {
	LiveOpts

	// KillAfterFrac positions the simulated crash in the workload: the kill
	// fires immediately after that fraction of the requests has been
	// submitted, while the backlog is still in flight (default 0.5).
	KillAfterFrac float64

	// TornTailGarbage, when positive, appends that many seeded garbage bytes
	// to the last journal segment after the crash — the torn-write case a
	// real power loss produces. Recovery must detect and skip the tail
	// without losing any acknowledged record.
	TornTailGarbage int
}

// CrashResult summarizes one kill/restart run for the test and its logs.
type CrashResult struct {
	// Violations is the set of invariant breaches across the crash boundary;
	// empty means the run conformed.
	Violations []Violation

	// AckedAtCrash counts requests whose admission was durably acknowledged
	// before the kill; PendingAtCrash counts those without a durable
	// terminal at recovery time (the replay set).
	AckedAtCrash   int
	PendingAtCrash int
	// Replayed counts requests re-admitted into the restarted server.
	Replayed int
	// TornSegments echoes the recovery scan's torn-segment count.
	TornSegments int

	// Outcomes is the final journaled terminal state per workload index for
	// every durably admitted request.
	Outcomes map[int]Outcome
}

// journalOutcome maps a journaled terminal state to the harness outcome.
func journalOutcome(o journal.Outcome) Outcome {
	switch o {
	case journal.OutcomeCompleted:
		return OutcomeCompleted
	case journal.OutcomeCancelled:
		return OutcomeCancelled
	case journal.OutcomeExpired:
		return OutcomeExpired
	}
	return OutcomeFailed
}

// crashServerConfig builds the same five-cell live config RunLive uses, plus
// the journal wiring; executed tasks are reported to log.
func crashServerConfig(m *Model, opts LiveOpts, jnl *journal.Journal, firstID uint64, log *taskLog) server.Config {
	return server.Config{
		Workers:          opts.Workers,
		MaxTasksToSubmit: opts.MaxTasksToSubmit,
		TaskObserver:     log.observe,
		Faults:           opts.Faults,
		MaxQueuedCells:   opts.MaxQueuedCells,
		Journal:          jnl,
		FirstRequestID:   firstID,
		Cells: []server.CellSpec{
			{Cell: m.LSTM, MaxBatch: opts.MaxBatch},
			{Cell: m.Enc, MaxBatch: opts.MaxBatch, Priority: 0},
			{Cell: m.Dec, MaxBatch: opts.MaxBatch, Priority: 1},
			{Cell: m.Leaf, MaxBatch: opts.MaxBatch, Priority: 0},
			{Cell: m.Internal, MaxBatch: opts.MaxBatch, Priority: 1},
		},
	}
}

// appendGarbage simulates a torn write by appending seeded random bytes to
// the journal's last segment. Group commit acknowledges only fsynced
// records, so the garbage can corrupt at most unacknowledged state.
func appendGarbage(dir string, seed uint64, n int) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var segs []string
	for _, e := range entries {
		if !e.IsDir() {
			segs = append(segs, e.Name())
		}
	}
	if len(segs) == 0 {
		return fmt.Errorf("conformance: no journal segments to corrupt in %s", dir)
	}
	sort.Strings(segs) // zero-padded names sort in index order
	f, err := os.OpenFile(filepath.Join(dir, segs[len(segs)-1]), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	rng := tensor.NewRNG(seed ^ 0xBADBADBAD)
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = byte(rng.Uint64())
	}
	_, err = f.Write(buf)
	return err
}

// admitted is one submission the server accepted: its workload index and
// its handle.
type admitted struct {
	idx    int
	handle *server.Handle
}

// durableInFlight reports whether one of hs is unresolved with its admit
// durably acknowledged. It blocks only on acks that have not resolved yet.
func durableInFlight(hs []admitted) bool {
	for _, a := range hs {
		select {
		case <-a.handle.Done():
		default:
			if a.handle.AdmitDurable() == nil {
				return true
			}
		}
	}
	return false
}

// RunCrashRestart drives the workload's prefix against a journaled live
// server, crashes it mid-flight (journal hard-killed first, so nothing the
// shutdown path would write survives — exactly what SIGKILL loses), then
// recovers the journal, restarts a fresh server against it, and replays the
// pending requests. It checks the durability invariants across the crash
// boundary:
//
//   - conservation: every durably admitted request reaches exactly one
//     journaled terminal state — none lost, none duplicated, no phantoms
//   - undisrupted requests (no cancel/deadline schedule) must complete
//   - numerics: every completed request, whichever side of the crash it
//     completed on, bit-matches the sequential oracle
//   - torn tails (when injected) are detected and skipped without losing
//     acknowledged records
//   - telemetry: each server's metric registry — the crashed one after Stop,
//     the restarted one after Drain — reconciles with its task log
func RunCrashRestart(m *Model, w *Workload, dir string, opts CrashOpts) (*CrashResult, error) {
	lo := opts.LiveOpts.withDefaults()
	frac := opts.KillAfterFrac
	if frac <= 0 || frac > 1 {
		frac = 0.5
	}
	killIdx := int(float64(len(w.Reqs)) * frac)
	if killIdx < 1 {
		killIdx = 1
	}

	oracle, err := Oracle(m, w)
	if err != nil {
		return nil, fmt.Errorf("conformance: sequential oracle: %w", err)
	}
	res := &CrashResult{Outcomes: make(map[int]Outcome)}
	violate := func(kind string, req int, format string, a ...interface{}) {
		res.Violations = append(res.Violations, Violation{Kind: kind, Req: req, Detail: fmt.Sprintf(format, a...)})
	}
	scale := func(d time.Duration) time.Duration {
		return time.Duration(float64(d) * lo.TimeScale)
	}

	// --- Phase 1: serve the workload prefix, then crash ------------------
	jnl, err := journal.Open(journal.Options{Dir: dir, Sync: journal.SyncBatch})
	if err != nil {
		return nil, fmt.Errorf("conformance: opening journal: %w", err)
	}
	var log1, log2 taskLog
	srv, err := server.New(crashServerConfig(m, lo, jnl, 0, &log1))
	if err != nil {
		return nil, err
	}

	// acked maps journal request ID → workload index for every submission
	// the journal durably acknowledged. Built after the kill from each
	// handle's AdmitDurable ack (admission overlaps the group commit, so
	// durability is only knowable per-handle): a nil ack means the admit
	// record was fsynced before the crash, anything else means the record
	// died with the process.
	acked := make(map[uint64]int)
	reqByIndex := make(map[int]*Request, len(w.Reqs))
	results := make(map[int]map[string]*tensor.Tensor)
	var handles []admitted
	firstHalf := 0 // handles whose admit acks the midpoint wait resolved
	var cancels sync.WaitGroup
	start := time.Now()
	for i, r := range w.Reqs[:killIdx] {
		if i == killIdx/2 && len(handles) > 0 {
			// Let the first half's admits become durable before the second
			// half arrives in a burst inside the next group-commit window, so
			// the kill lands on a mix of durable and dropped records rather
			// than a single giant batch.
			_ = handles[len(handles)-1].handle.AdmitDurable() // classified after the kill
			firstHalf = len(handles)
		}
		reqByIndex[r.Index] = r
		if wait := scale(r.Arrival) - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		g, err := m.BuildGraph(r)
		if err != nil {
			return nil, fmt.Errorf("conformance: building request %d: %w", r.Index, err)
		}
		payload, err := json.Marshal(r)
		if err != nil {
			return nil, fmt.Errorf("conformance: serializing request %d: %w", r.Index, err)
		}
		so := server.SubmitOpts{JournalPayload: payload}
		if r.Deadline > 0 {
			so.Deadline = time.Now().Add(scale(r.Deadline))
		}
		h, err := srv.SubmitAsyncOpts(g, so)
		if err != nil {
			// Never admitted, never journaled: sheds are outside the
			// durability contract.
			continue
		}
		handles = append(handles, admitted{idx: r.Index, handle: h})
		if r.CancelAfter > 0 {
			cancels.Add(1)
			delay := scale(r.CancelAfter)
			go func(h *server.Handle) {
				defer cancels.Done()
				time.Sleep(delay)
				h.Cancel()
			}(h)
		}
	}

	// The kill must land while some durably acknowledged request is still
	// unresolved, or it interrupts nothing and the replay checks nothing.
	// Wait for that state rather than trusting the schedule. The first
	// half's acks resolved at the midpoint, so if one of those requests is
	// still open the kill lands now, on durable and dropped records alike.
	// If all of them finished first (a fast kernel, or a stalled machine
	// that submitted the prefix late), wait for the last submission's ack:
	// the second half is then durable and, behind the scenario's per-task
	// fault delay, still in flight.
	if len(handles) > 0 && !durableInFlight(handles[:firstHalf]) {
		_ = handles[len(handles)-1].handle.AdmitDurable() // the ack's value is classified below
	}

	// Crash. The journal dies first: everything queued or buffered but not
	// yet acknowledged is dropped, and the server's shutdown path (which
	// would journal clean terminal records) writes into a dead journal —
	// the same loss profile as SIGKILL under sync=batch.
	jnl.Kill()
	srv.Stop()
	res.Violations = append(res.Violations, reconcile(srv.Metrics().Registry(), log1.tasks)...)
	for _, a := range handles {
		<-a.handle.Done()
		// Kill resolved every outstanding admit ack (fsynced → nil,
		// dropped → error), so this classification never blocks.
		if a.handle.AdmitDurable() == nil {
			acked[uint64(a.handle.ID())] = a.idx
		}
		if out, err := a.handle.Result(); err == nil {
			results[a.idx] = out
		}
	}

	if opts.TornTailGarbage > 0 {
		if err := appendGarbage(dir, w.Seed, opts.TornTailGarbage); err != nil {
			return nil, fmt.Errorf("conformance: injecting torn tail: %w", err)
		}
	}

	// --- Recovery scan ----------------------------------------------------
	rec, err := journal.Recover(dir)
	if err != nil {
		return nil, fmt.Errorf("conformance: recovery scan: %w", err)
	}
	res.AckedAtCrash = len(acked)
	res.PendingAtCrash = len(rec.Pending)
	for id := range rec.Terminal {
		if _, ok := acked[id]; !ok {
			violate("phantom-record", -1, "journal holds a terminal for id %d that was never acknowledged", id)
		}
	}
	for _, p := range rec.Pending {
		if _, ok := acked[p.ID]; !ok {
			violate("phantom-record", -1, "journal holds an admit for id %d that was never acknowledged", p.ID)
		}
	}

	// --- Phase 2: restart against the journal and replay ------------------
	jnl2, err := journal.Open(journal.Options{Dir: dir, Sync: journal.SyncBatch})
	if err != nil {
		return nil, fmt.Errorf("conformance: reopening journal: %w", err)
	}
	srv2, err := server.New(crashServerConfig(m, lo, jnl2, rec.MaxID, &log2))
	if err != nil {
		return nil, err
	}
	var handles2 []admitted
	for _, p := range rec.Pending {
		idx, known := acked[p.ID]
		if !known {
			continue // already flagged as phantom
		}
		if p.CancelRequested {
			// The caller's cancel intent was journaled before the crash:
			// honor it without re-executing.
			jnl2.AppendTerminal(p.ID, journal.OutcomeCancelled, "replay: cancel intent journaled before crash")
			continue
		}
		var r Request
		if err := json.Unmarshal(p.Payload, &r); err != nil {
			jnl2.AppendTerminal(p.ID, journal.OutcomeFailed, "replay: "+err.Error())
			violate("replay-payload", idx, "journaled payload does not decode: %v", err)
			continue
		}
		if r.Index != idx {
			violate("replay-payload", idx, "journaled payload carries index %d", r.Index)
		}
		if p.DeadlineNs > 0 && time.Now().UnixNano() > p.DeadlineNs {
			jnl2.AppendTerminal(p.ID, journal.OutcomeExpired, "replay: deadline passed during downtime")
			continue
		}
		g, err := m.BuildGraph(&r)
		if err != nil {
			jnl2.AppendTerminal(p.ID, journal.OutcomeFailed, "replay: "+err.Error())
			violate("replay-rebuild", idx, "graph rebuild failed: %v", err)
			continue
		}
		so := server.SubmitOpts{ReplayID: core.RequestID(p.ID)}
		if p.DeadlineNs > 0 {
			so.Deadline = time.Unix(0, p.DeadlineNs)
		}
		h, err := srv2.SubmitAsyncOpts(g, so)
		if err != nil {
			jnl2.AppendTerminal(p.ID, journal.OutcomeFailed, "replay: "+err.Error())
			violate("replay-admit", idx, "re-admission failed: %v", err)
			continue
		}
		if h.ID() != core.RequestID(p.ID) {
			violate("replay-id", idx, "replayed under id %d, journaled as %d", h.ID(), p.ID)
		}
		handles2 = append(handles2, admitted{idx: idx, handle: h})
		res.Replayed++
	}
	for _, a := range handles2 {
		<-a.handle.Done()
		if out, err := a.handle.Result(); err == nil {
			results[a.idx] = out
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv2.Drain(ctx); err != nil {
		violate("unclean-drain", -1, "restarted server drain: %v", err)
	}
	res.Violations = append(res.Violations, reconcile(srv2.Metrics().Registry(), log2.tasks)...)
	jnl2.Close()
	cancels.Wait()

	// --- Final convergence check ------------------------------------------
	fin, err := journal.Recover(dir)
	if err != nil {
		return nil, fmt.Errorf("conformance: final recovery scan: %w", err)
	}
	res.TornSegments = fin.TornSegments
	if len(fin.Pending) != 0 {
		for _, p := range fin.Pending {
			violate("lost-request", acked[p.ID], "id %d still pending after replay and clean shutdown", p.ID)
		}
	}
	if fin.DuplicateAdmits != 0 || fin.DuplicateTerminals != 0 || fin.OrphanTerminals != 0 {
		violate("journal-anomaly", -1, "duplicate admits=%d duplicate terminals=%d orphan terminals=%d",
			fin.DuplicateAdmits, fin.DuplicateTerminals, fin.OrphanTerminals)
	}
	if opts.TornTailGarbage > 0 && fin.TornSegments == 0 {
		violate("torn-tail", -1, "injected %d garbage bytes but recovery reported no torn segment", opts.TornTailGarbage)
	}
	if len(fin.Terminal) != len(acked) {
		violate("counter-mismatch", -1, "journal holds %d terminals for %d acknowledged admissions", len(fin.Terminal), len(acked))
	}
	for id, idx := range acked {
		term, ok := fin.Terminal[id]
		if !ok {
			violate("lost-request", idx, "durably admitted as id %d but no terminal after replay", id)
			continue
		}
		out := journalOutcome(term.Outcome)
		res.Outcomes[idx] = out
		if r := reqByIndex[idx]; r != nil && !r.Disrupted() && out != OutcomeCompleted {
			violate("crash-incomplete", idx, "undisrupted request ended %v across the crash (%s)", out, term.Reason)
		}
	}

	// Numerics: whichever side of the crash a request completed on, the
	// outputs must bit-match the sequential oracle.
	for idx, got := range results {
		want := oracle[idx]
		if len(got) != len(want) {
			violate("numerics", idx, "result has %d outputs, oracle has %d", len(got), len(want))
			continue
		}
		for name, wt := range want {
			gt, ok := got[name]
			if !ok {
				violate("numerics", idx, "missing output %q", name)
				continue
			}
			if !gt.Equal(wt) {
				violate("numerics", idx, "output %q differs from sequential oracle", name)
			}
		}
	}
	return res, nil
}
