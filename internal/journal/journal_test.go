package journal

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"batchmaker/internal/obsv"
)

// openTest opens a journal in a fresh temp dir, committing without fsync
// unless mutate says otherwise.
func openTest(t *testing.T, mutate func(*Options)) (*Journal, string) {
	t.Helper()
	dir := t.TempDir()
	opts := Options{Dir: dir, Sync: SyncNone}
	if mutate != nil {
		mutate(&opts)
	}
	j, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return j, dir
}

func TestRecordRoundtrip(t *testing.T) {
	recs := []Record{
		{Kind: KindAdmit, ID: 1, Payload: []byte(`{"index":0}`), DeadlineNs: 123456789},
		{Kind: KindAdmit, ID: 2},
		{Kind: KindCancel, ID: 1},
		{Kind: KindTerminal, ID: 2, Outcome: OutcomeCompleted},
		{Kind: KindTerminal, ID: 1, Outcome: OutcomeFailed, Reason: "cell panic: boom"},
	}
	var buf []byte
	for i := range recs {
		var err error
		buf, err = appendRecord(buf, &recs[i])
		if err != nil {
			t.Fatal(err)
		}
	}
	off := 0
	for i := range recs {
		got, n, err := decodeRecord(buf[off:])
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		off += n
		want := recs[i]
		if got.Kind != want.Kind || got.ID != want.ID || got.DeadlineNs != want.DeadlineNs ||
			got.Outcome != want.Outcome || got.Reason != want.Reason || string(got.Payload) != string(want.Payload) {
			t.Fatalf("record %d: got %+v, want %+v", i, got, want)
		}
	}
	if off != len(buf) {
		t.Fatalf("decoded %d of %d bytes", off, len(buf))
	}
}

func TestAppendThenRecover(t *testing.T) {
	j, dir := openTest(t, nil)
	if err := <-j.AppendAdmit(1, []byte("req-one"), 42); err != nil {
		t.Fatal(err)
	}
	if err := <-j.AppendAdmit(2, []byte("req-two"), 0); err != nil {
		t.Fatal(err)
	}
	j.AppendTerminal(1, OutcomeCompleted, "")
	j.AppendCancel(2)
	j.Close()

	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Records != 4 || rec.Segments != 1 {
		t.Fatalf("got %d records over %d segments, want 4 over 1", rec.Records, rec.Segments)
	}
	if rec.MaxID != 2 {
		t.Fatalf("MaxID = %d, want 2", rec.MaxID)
	}
	if len(rec.Pending) != 1 {
		t.Fatalf("pending = %+v, want exactly request 2", rec.Pending)
	}
	p := rec.Pending[0]
	if p.ID != 2 || string(p.Payload) != "req-two" || !p.CancelRequested {
		t.Fatalf("pending request = %+v, want id 2 with cancel intent", p)
	}
	if tr, ok := rec.Terminal[1]; !ok || tr.Outcome != OutcomeCompleted {
		t.Fatalf("terminal[1] = %+v, want completed", tr)
	}
	if rec.TornSegments != 0 || rec.DuplicateAdmits != 0 || rec.DuplicateTerminals != 0 || rec.OrphanTerminals != 0 {
		t.Fatalf("unexpected anomalies: %+v", rec)
	}
}

func TestGroupCommitBatches(t *testing.T) {
	reg := obsv.NewRegistry()
	m := obsv.NewJournalMetrics(reg)
	j, _ := openTest(t, func(o *Options) {
		o.Sync = SyncBatch
		o.Metrics = m
	})
	// Enqueue a burst: whatever queues behind the first commit's fsync rides
	// the next batch, so far fewer fsyncs than records.
	const n = 64
	waits := make([]<-chan error, n)
	for i := 0; i < n; i++ {
		waits[i] = j.AppendAdmit(uint64(i+1), []byte("p"), 0)
	}
	for i, w := range waits {
		if err := <-w; err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	fsyncs := m.Fsyncs.Value()
	if fsyncs == 0 || fsyncs >= n/2 {
		t.Fatalf("%d fsyncs for %d records: group commit not batching", fsyncs, n)
	}
	if got := m.AdmitRecords.Value(); got != n {
		t.Fatalf("admit records = %d, want %d", got, n)
	}
	j.Close()
}

func TestSegmentRotation(t *testing.T) {
	j, dir := openTest(t, func(o *Options) { o.SegmentMaxBytes = 256 })
	payload := make([]byte, 100)
	const n = 20
	for i := 1; i <= n; i++ {
		if err := <-j.AppendAdmit(uint64(i), payload, 0); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	idxs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(idxs) < 3 {
		t.Fatalf("only %d segments for %d oversized records, rotation not happening", len(idxs), n)
	}
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Records != n || len(rec.Pending) != n || rec.TornSegments != 0 {
		t.Fatalf("recovered %d records, %d pending, %d torn; want %d/%d/0",
			rec.Records, len(rec.Pending), rec.TornSegments, n, n)
	}
	for i, p := range rec.Pending {
		if p.ID != uint64(i+1) {
			t.Fatalf("pending[%d].ID = %d: admit order not preserved across segments", i, p.ID)
		}
	}
}

func TestOpenContinuesAfterExistingSegments(t *testing.T) {
	dir := t.TempDir()
	j1, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-j1.AppendAdmit(1, []byte("old"), 0); err != nil {
		t.Fatal(err)
	}
	j1.Close()

	j2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	j2.AppendTerminal(1, OutcomeCompleted, "")
	if err := <-j2.AppendAdmit(2, []byte("new"), 0); err != nil {
		t.Fatal(err)
	}
	j2.Close()

	idxs, _ := listSegments(dir)
	if len(idxs) != 2 {
		t.Fatalf("segments = %v, want the second Open to start a fresh segment", idxs)
	}
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Pending) != 1 || rec.Pending[0].ID != 2 {
		t.Fatalf("pending = %+v: terminal in the new segment must pair with admit in the old", rec.Pending)
	}
}

// TestDegradesToLossyOnWriteError is the graceful-degradation satellite:
// a write failure must flip the journal to lossy mode — appends keep
// resolving immediately (never block, never panic) with ErrDegraded, and
// the errors counter goes nonzero.
func TestDegradesToLossyOnWriteError(t *testing.T) {
	reg := obsv.NewRegistry()
	m := obsv.NewJournalMetrics(reg)
	dir := t.TempDir()
	// The third write fails: the first two (header + one record, then one
	// more record) land.
	disk := &faultDisk{kind: faultWrite, at: 3}
	j, err := Open(Options{Dir: dir, Sync: SyncNone, Metrics: m, OpenSegment: disk.open})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	if err := <-j.AppendAdmit(1, []byte("ok"), 0); err != nil {
		t.Fatalf("pre-failure append: %v", err)
	}
	// Pump appends until the injected failure lands.
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := <-j.AppendAdmit(2, []byte("doomed"), 0)
		if err != nil {
			if !errors.Is(err, ErrDegraded) {
				t.Fatalf("got %v, want ErrDegraded", err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("journal never degraded despite failing writer")
		}
	}
	if ok, detail := j.Degraded(); !ok || detail == "" {
		t.Fatalf("Degraded() = %v %q, want true with a reason", ok, detail)
	}
	if m.Errors.Value() == 0 {
		t.Fatal("errors counter still zero after degradation")
	}
	// Post-degradation appends must resolve immediately, not block.
	done := make(chan struct{})
	go func() {
		for i := 0; i < 1000; i++ {
			<-j.AppendAdmit(uint64(100+i), nil, 0)
			j.AppendTerminal(uint64(100+i), OutcomeFailed, "x")
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("appends blocked after degradation — lossy mode must never stall the admit path")
	}
}

func TestKillDropsUnflushedOnly(t *testing.T) {
	reg := obsv.NewRegistry()
	m := obsv.NewJournalMetrics(reg)
	j, dir := openTest(t, func(o *Options) {
		o.Sync = SyncBatch
		o.Metrics = m
	})
	// Acknowledged under SyncBatch → durable even across Kill.
	for i := 1; i <= 5; i++ {
		if err := <-j.AppendAdmit(uint64(i), []byte(fmt.Sprintf("req-%d", i)), 0); err != nil {
			t.Fatal(err)
		}
	}
	// Unacknowledged fire-and-forget records may or may not land; Kill.
	j.AppendTerminal(1, OutcomeCompleted, "")
	j.Kill()

	// Appends after Kill resolve with ErrClosed immediately.
	if err := <-j.AppendAdmit(99, nil, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after Kill: %v, want ErrClosed", err)
	}

	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		found := false
		for _, p := range rec.Pending {
			if p.ID == uint64(i) {
				found = true
			}
		}
		if _, done := rec.Terminal[uint64(i)]; !found && !done {
			t.Fatalf("acknowledged request %d lost after Kill — SyncBatch ack must mean durable", i)
		}
	}
}

func TestCloseFlushesQueued(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// Fire-and-forget appends may still sit in the queue; Close must commit
	// them.
	for i := 1; i <= 10; i++ {
		j.AppendAdmit(uint64(i), []byte("q"), 0)
	}
	j.Close()
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Records != 10 {
		t.Fatalf("recovered %d records, want 10 — Close dropped queued work", rec.Records)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	cases := map[string]SyncPolicy{"none": SyncNone, "batch": SyncBatch, "BATCH": SyncBatch, "": SyncBatch}
	for in, want := range cases {
		got, err := ParseSyncPolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"sometimes", "always"} {
		if _, err := ParseSyncPolicy(in); err == nil {
			t.Fatalf("ParseSyncPolicy accepted %q", in)
		}
	}
}

// TestOpenStartsOneGoroutine: the journal runs on one goroutine. Open adds
// exactly one, a commit starts no other, and Close — or Kill — takes it away
// again.
func TestOpenStartsOneGoroutine(t *testing.T) {
	for name, stop := range map[string]func(*Journal){"Close": (*Journal).Close, "Kill": (*Journal).Kill} {
		base := settledGoroutines(-1)
		j, _ := openTest(t, func(o *Options) { o.Sync = SyncBatch })
		if got := runtime.NumGoroutine() - base; got != 1 {
			t.Fatalf("Open started %d goroutines, want 1", got)
		}
		if err := <-j.AppendAdmit(1, []byte("p"), 0); err != nil {
			t.Fatal(err)
		}
		if got := runtime.NumGoroutine() - base; got != 1 {
			t.Fatalf("%d journal goroutines after a commit, want 1", got)
		}
		stop(j)
		if got := settledGoroutines(base); got != base {
			t.Fatalf("%d goroutines after %s, want the %d before Open", got, name, base)
		}
	}
}

// settledGoroutines waits up to a second for the goroutine count to reach
// want (any steady count when want < 0: two equal reads 5 ms apart) and
// returns the last count read. An exiting goroutine lingers briefly after
// the WaitGroup it signals is released.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for stop := time.Now().Add(time.Second); time.Now().Before(stop); {
		time.Sleep(5 * time.Millisecond)
		prev := n
		n = runtime.NumGoroutine()
		if n == want || (want < 0 && n == prev) {
			break
		}
	}
	return n
}

func TestSegmentNameRoundtrip(t *testing.T) {
	for _, idx := range []int{0, 7, 12345678} {
		got, ok := segmentIndex(segmentName(idx))
		if !ok || got != idx {
			t.Fatalf("segmentIndex(segmentName(%d)) = %d, %v", idx, got, ok)
		}
	}
	for _, name := range []string{"journal-x.wal", "other.wal", "journal-00000001.tmp", "journal--0000001.wal"} {
		if _, ok := segmentIndex(name); ok {
			t.Fatalf("segmentIndex accepted foreign file %q", name)
		}
	}
}

func TestRecoverMissingDirIsEmpty(t *testing.T) {
	rec, err := Recover(filepath.Join(t.TempDir(), "nope"))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Segments != 0 || len(rec.Pending) != 0 {
		t.Fatalf("missing dir recovered as %+v, want empty", rec)
	}
}
