package journal

import (
	"testing"
	"time"

	"batchmaker/internal/obsv"
)

// collect waits for at least one record of each wanted kind to land in the
// ring, bounded by a deadline.
func collect(t *testing.T, r *obsv.Ring, deadline time.Duration, want ...obsv.Kind) map[obsv.Kind][]obsv.Record {
	t.Helper()
	var recs []obsv.Record
	stop := time.Now().Add(deadline)
	for {
		recs = r.Snapshot(recs[:0])
		got := map[obsv.Kind][]obsv.Record{}
		for _, rec := range recs {
			got[rec.Kind] = append(got[rec.Kind], rec)
		}
		missing := false
		for _, k := range want {
			if len(got[k]) == 0 {
				missing = true
			}
		}
		if !missing {
			return got
		}
		if time.Now().After(stop) {
			t.Fatalf("ring %s never saw all of %v; has %v", r.Name(), want, got)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestJournalTraceRingsSyncNone: under SyncNone the flush goroutine writes
// the group-commit flush span and the durability acks to the journal's ring,
// and no fsync span before Close.
func TestJournalTraceRingsSyncNone(t *testing.T) {
	ring := obsv.NewRing("journal", 64)
	j, _ := openTest(t, func(o *Options) { o.Ring = ring })
	defer j.Close()

	for i := uint64(1); i <= 4; i++ {
		if err := <-j.AppendAdmit(i, []byte("{}"), 0); err != nil {
			t.Fatal(err)
		}
	}
	got := collect(t, ring, time.Second, obsv.KindJournalFlush, obsv.KindJournalDurable)

	for _, rec := range got[obsv.KindJournalFlush] {
		if rec.Batch <= 0 {
			t.Fatalf("flush span carries batch size %d", rec.Batch)
		}
		if rec.T1 < rec.T0 {
			t.Fatalf("flush span runs backwards: %d..%d", rec.T0, rec.T1)
		}
	}
	// Every admit gets a durability ack carrying its request id.
	seen := map[int64]bool{}
	for _, rec := range got[obsv.KindJournalDurable] {
		seen[rec.Req] = true
	}
	for i := int64(1); i <= 4; i++ {
		if !seen[i] {
			t.Fatalf("no durable ack for request %d: %v", i, got[obsv.KindJournalDurable])
		}
	}
	if n := len(got[obsv.KindJournalFsync]); n != 0 {
		t.Fatalf("SyncNone wrote %d fsync spans before Close", n)
	}
}

// TestJournalTraceRingsSyncBatch: under SyncBatch the flush, the fsync and
// the durability acks all land on the journal's one ring.
func TestJournalTraceRingsSyncBatch(t *testing.T) {
	ring := obsv.NewRing("journal", 64)
	j, _ := openTest(t, func(o *Options) {
		o.Sync = SyncBatch
		o.Ring = ring
	})
	defer j.Close()

	if err := <-j.AppendAdmit(1, []byte("{}"), 0); err != nil {
		t.Fatal(err)
	}
	got := collect(t, ring, time.Second, obsv.KindJournalFlush, obsv.KindJournalFsync, obsv.KindJournalDurable)
	for _, rec := range got[obsv.KindJournalFsync] {
		if rec.T1 < rec.T0 {
			t.Fatalf("fsync span runs backwards: %d..%d", rec.T0, rec.T1)
		}
	}
	found := false
	for _, rec := range got[obsv.KindJournalDurable] {
		if rec.Req == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no durable ack for request 1: %v", got[obsv.KindJournalDurable])
	}
}
