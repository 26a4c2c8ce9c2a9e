package obsv

import (
	"sync"
	"testing"
)

func TestRingPackUnpackRoundTrip(t *testing.T) {
	recs := []Record{
		{Kind: KindAdmit, Req: 42, T0: 1000},
		{Kind: KindTaskExec, Worker: 3, Type: 7, Batch: 65535, Queue: 12, T0: 5, T1: 9},
		{Kind: KindPanic, Worker: 255, Type: 65535, Batch: 1, Queue: 65535},
		{Kind: KindDispatch, Worker: 9, Batch: 4, Device: 255, Flags: FlagRemote | FlagMigrated, T0: 2},
		{Kind: KindJournalDurable, Req: 7, T0: 3},
	}
	for _, want := range recs {
		got := unpack(pack(want), packAux(want))
		got.Req, got.T0, got.T1 = want.Req, want.T0, want.T1
		if got != want {
			t.Fatalf("round trip: got %+v want %+v", got, want)
		}
	}
}

func TestRingCapacityRounding(t *testing.T) {
	if got := NewRing("x", 0).Cap(); got != DefaultRingCapacity {
		t.Fatalf("default capacity: got %d", got)
	}
	if got := NewRing("x", 5).Cap(); got != 8 {
		t.Fatalf("capacity 5 should round to 8, got %d", got)
	}
	if got := NewRing("x", 8).Cap(); got != 8 {
		t.Fatalf("capacity 8 should stay 8, got %d", got)
	}
}

func TestRingOverwriteAndDropCounting(t *testing.T) {
	r := NewRing("x", 4)
	for i := 1; i <= 10; i++ {
		r.Write(Record{Kind: KindAdmit, Req: int64(i), T0: int64(i)})
	}
	if got := r.Total(); got != 10 {
		t.Fatalf("total: got %d want 10", got)
	}
	if got := r.Dropped(); got != 6 {
		t.Fatalf("dropped: got %d want 6", got)
	}
	snap := r.Snapshot(nil)
	if len(snap) != 4 {
		t.Fatalf("snapshot length: got %d want 4", len(snap))
	}
	for i, rec := range snap {
		if want := int64(7 + i); rec.Req != want {
			t.Fatalf("snapshot[%d].Req = %d, want %d (oldest-first, most recent retained)", i, rec.Req, want)
		}
	}
}

func TestNilRingIsSafe(t *testing.T) {
	var r *Ring
	r.Write(Record{Kind: KindAdmit})
	if r.Total() != 0 || r.Dropped() != 0 || r.Cap() != 0 || r.Name() != "" {
		t.Fatal("nil ring should report zeros")
	}
	if got := r.Snapshot(nil); got != nil {
		t.Fatalf("nil ring snapshot: got %v", got)
	}
}

// TestRingConcurrentWriteSnapshot hammers one writer against many snapshot
// readers. Run under -race this is the data-race regression test for the
// seqlock protocol; in any mode it asserts no torn record escapes: every
// snapshotted record must be internally consistent (Req == T0 == T1 by
// construction).
func TestRingConcurrentWriteSnapshot(t *testing.T) {
	r := NewRing("x", 64)
	const writes = 20000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= writes; i++ {
			v := int64(i)
			r.Write(Record{Kind: KindTaskExec, Batch: uint16(i % 100), Req: v, T0: v, T1: v})
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]Record, 0, 64)
			for {
				select {
				case <-done:
					return
				default:
				}
				buf = r.Snapshot(buf[:0])
				for _, rec := range buf {
					if rec.Req != rec.T0 || rec.Req != rec.T1 {
						t.Errorf("torn record: %+v", rec)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	<-done
	if got := r.Total(); got != writes {
		t.Fatalf("total: got %d want %d", got, writes)
	}
}

// TestRingWriteDoesNotAllocate pins the hot-path property the zero-alloc
// worker gate depends on.
func TestRingWriteDoesNotAllocate(t *testing.T) {
	r := NewRing("x", 16)
	rec := Record{Kind: KindTaskExec, Worker: 1, Type: 2, Batch: 3, Queue: 4, T0: 5, T1: 6}
	allocs := testing.AllocsPerRun(1000, func() { r.Write(rec) })
	if allocs != 0 {
		t.Fatalf("Ring.Write allocates %.1f objects/op, want 0", allocs)
	}
}
