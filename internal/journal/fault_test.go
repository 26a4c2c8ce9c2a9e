package journal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"testing"
	"time"

	"batchmaker/internal/obsv"
)

// faultKind is the disk fault a faultDisk injects.
type faultKind int

const (
	faultWrite      faultKind = iota // Write fails, writing nothing
	faultShortWrite                  // Write stores half of p and returns io.ErrShortWrite
	faultSync                        // Sync fails
)

var errInjected = errors.New("injected: no space left on device")

// faultDisk injects one fault into the segment files a journal opens through
// it: the at'th call of the faulted method (Sync for faultSync, Write
// otherwise), counted across every segment, fails. The files are real, so
// Recover reads what was written. Sync skips the real fsync: Recover reads
// the page cache, and Kill's truncation to the acknowledged prefix models
// the power loss.
type faultDisk struct {
	kind faultKind
	at   int

	mu    sync.Mutex
	calls int
}

// hit counts one call of the faulted method and reports whether it fails.
func (d *faultDisk) hit() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.calls++
	return d.calls == d.at
}

// fired reports whether the fault has been injected.
func (d *faultDisk) fired() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.calls >= d.at
}

func (d *faultDisk) open(path string) (SegmentFile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &faultSegment{File: f, d: d}, nil
}

// faultSegment is an *os.File (so Kill can truncate it) whose Write and
// Sync go through its faultDisk.
type faultSegment struct {
	*os.File
	d *faultDisk
}

func (s *faultSegment) Write(p []byte) (int, error) {
	if s.d.kind == faultSync || !s.d.hit() {
		return s.File.Write(p)
	}
	if s.d.kind == faultShortWrite {
		n, _ := s.File.Write(p[:len(p)/2])
		return n, io.ErrShortWrite
	}
	return 0, errInjected
}

func (s *faultSegment) Sync() error {
	if s.d.kind == faultSync && s.d.hit() {
		return errInjected
	}
	return nil
}

// TestDiskFaultAtEveryRecordBoundary injects one disk fault — a failed
// write, a short write or a failed fsync — at the k'th call of the faulted
// method, for every k across a run of sequential appends that spans several
// segment rotations, under both sync policies. Wherever the fault lands:
// every append resolves; every record acknowledged nil is recovered and
// Recover finds nothing that was never appended; a fault that fired leaves
// the journal degraded with a reason, every ack after the first failed one
// is ErrDegraded and the errors counter is nonzero; and the journal still
// shuts down. SyncBatch runs end with Kill, since its acks promise
// power-loss durability; SyncNone runs end with Close, since Kill cuts what
// SyncNone never fsynced.
func TestDiskFaultAtEveryRecordBoundary(t *testing.T) {
	const admits = 40 // plus a terminal after every fourth: 50 appends
	kinds := []struct {
		name string
		kind faultKind
	}{{"write", faultWrite}, {"short-write", faultShortWrite}, {"fsync", faultSync}}
	for _, policy := range []SyncPolicy{SyncBatch, SyncNone} {
		for _, fk := range kinds {
			t.Run(policy.String()+"/"+fk.name, func(t *testing.T) {
				for k := 1; k <= admits+admits/4; k++ {
					diskFaultRun(t, policy, &faultDisk{kind: fk.kind, at: k}, admits)
				}
			})
		}
	}
}

// diskFaultRun drives one journal on disk through admits sequential admits
// (and a terminal after every fourth), then checks the fault invariants.
func diskFaultRun(t *testing.T, policy SyncPolicy, disk *faultDisk, admits int) {
	t.Helper()
	const timeout = 5 * time.Second
	m := obsv.NewJournalMetrics(obsv.NewRegistry())
	dir := t.TempDir()
	j, err := Open(Options{Dir: dir, Sync: policy, SegmentMaxBytes: 1024, Metrics: m, OpenSegment: disk.open})
	if err != nil {
		t.Fatal(err)
	}
	where := fmt.Sprintf("fault at call %d", disk.at)
	payload := func(id uint64) []byte { return bytes.Repeat([]byte{byte(id)}, 40) }
	ackedAdmits, ackedTerminals := map[uint64]bool{}, map[uint64]bool{}
	failed := false
	await := func(ack <-chan error, what string) bool {
		select {
		case err := <-ack:
			switch {
			case err == nil && !failed:
				return true
			case err == nil:
				t.Fatalf("%s: %s acked nil after an earlier append failed", where, what)
			case !errors.Is(err, ErrDegraded):
				t.Fatalf("%s: %s: %v, want ErrDegraded", where, what, err)
			}
			failed = true
			return false
		case <-time.After(timeout):
			t.Fatalf("%s: %s unresolved after %v", where, what, timeout)
		}
		return false
	}
	for i := 1; i <= admits; i++ {
		id := uint64(i)
		if await(j.AppendAdmit(id, payload(id), 0), fmt.Sprintf("admit %d", id)) {
			ackedAdmits[id] = true
		}
		if i%4 == 0 {
			done := id - 1
			if await(j.append(Record{Kind: KindTerminal, ID: done, Outcome: OutcomeCompleted}), fmt.Sprintf("terminal %d", done)) {
				ackedTerminals[done] = true
			}
		}
	}

	stop, stopName := j.Close, "Close"
	if policy == SyncBatch {
		stop, stopName = j.Kill, "Kill"
	}
	stopped := make(chan struct{})
	go func() {
		stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(timeout):
		t.Fatalf("%s: %s still running after %v", where, stopName, timeout)
	}

	degraded, why := j.Degraded()
	if fired := disk.fired(); fired != degraded || (degraded && why == "") {
		t.Fatalf("%s: fault fired %v, Degraded() = %v %q", where, fired, degraded, why)
	}
	if degraded && m.Errors.Value() < 1 {
		t.Fatalf("%s: degraded with errors counter %d", where, m.Errors.Value())
	}

	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	pending := map[uint64]bool{}
	for _, p := range rec.Pending {
		if p.ID < 1 || p.ID > uint64(admits) || !bytes.Equal(p.Payload, payload(p.ID)) {
			t.Fatalf("%s: recovered pending %d (payload %d bytes) that was never appended", where, p.ID, len(p.Payload))
		}
		pending[p.ID] = true
	}
	for id := range rec.Terminal {
		if id < 1 || id > uint64(admits) || id%4 != 3 {
			t.Fatalf("%s: recovered terminal %d that was never appended", where, id)
		}
	}
	for id := range ackedAdmits {
		if _, done := rec.Terminal[id]; !done && !pending[id] {
			t.Fatalf("%s: acked admit %d lost by recovery", where, id)
		}
	}
	for id := range ackedTerminals {
		if _, done := rec.Terminal[id]; !done {
			t.Fatalf("%s: acked terminal %d lost by recovery", where, id)
		}
	}
}
