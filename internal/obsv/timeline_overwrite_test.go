package obsv

import (
	"sync"
	"testing"
)

// TestTimelineAdmitOverwritten: a request whose admit record was
// overwritten by the bounded ring still reconstructs — terminal without
// admit, no since_admit_ns anywhere, and the omission reason set.
func TestTimelineAdmitOverwritten(t *testing.T) {
	o := NewObserver(NewRegistry(), 4)
	rp := o.NewRing("rp")
	rp.Write(Record{Kind: KindAdmit, Req: 1, T0: 100})
	// Four younger admits push req 1's admit out of the 4-slot ring.
	for i := int64(2); i <= 5; i++ {
		rp.Write(Record{Kind: KindAdmit, Req: i, T0: 100 + i})
	}
	rp.Write(Record{Kind: KindComplete, Req: 1, T0: 900})

	var one *Timeline
	for _, tl := range o.Timelines(0) {
		if tl.Req == 1 {
			one = tl
		}
	}
	if one == nil {
		t.Fatal("req 1's terminal was retained but no timeline was built")
	}
	if len(one.Events) != 1 || one.Events[0].Kind != "complete" {
		t.Fatalf("req 1 should be terminal-only: %+v", one.Events)
	}
	if one.Outcome != "complete" {
		t.Fatalf("outcome %q", one.Outcome)
	}
	if one.SinceAdmitOmitted != "admit_overwritten" {
		t.Fatalf("omission reason %q, want admit_overwritten", one.SinceAdmitOmitted)
	}
	if one.QueuingNs != 0 || one.ComputationNs != 0 {
		t.Fatalf("latency split cannot be computed without an admit: %+v", one)
	}
	for _, e := range one.Events {
		if e.SinceAdmitNs != 0 {
			t.Fatalf("event carries since_admit_ns %d with no admit to anchor it", e.SinceAdmitNs)
		}
	}
}

// TestTimelineNoNegativeSinceAdmit: even with cross-ring clock skew (a
// first-exec stamped before the admit it belongs to), reconstruction
// never emits a negative since_admit_ns.
func TestTimelineNoNegativeSinceAdmit(t *testing.T) {
	o := NewObserver(NewRegistry(), 16)
	rp := o.NewRing("rp")
	w0 := o.NewRing("worker-0")
	// Worker clock reads 95 while the rp clock stamped the admit at 100.
	w0.Write(Record{Kind: KindFirstExec, Req: 7, T0: 95})
	rp.Write(Record{Kind: KindAdmit, Req: 7, T0: 100})
	rp.Write(Record{Kind: KindComplete, Req: 7, T0: 300})

	tls := o.Timelines(0)
	if len(tls) != 1 {
		t.Fatalf("want 1 timeline, got %d", len(tls))
	}
	for _, e := range tls[0].Events {
		if e.SinceAdmitNs < 0 {
			t.Fatalf("negative since_admit_ns %d on %s", e.SinceAdmitNs, e.Kind)
		}
	}
}

// TestTimelineWorkerFieldsOnExec: first_exec events carry the executing
// worker, device, and batch size; lifecycle events don't.
func TestTimelineWorkerFieldsOnExec(t *testing.T) {
	o := NewObserver(NewRegistry(), 16)
	rp := o.NewRing("rp")
	w := o.NewRing("worker-3")
	rp.Write(Record{Kind: KindAdmit, Req: 1, T0: 100})
	w.Write(Record{Kind: KindFirstExec, Req: 1, Worker: 3, Device: 1, Batch: 6, T0: 200})
	rp.Write(Record{Kind: KindComplete, Req: 1, T0: 300})

	tl := o.Timelines(0)[0]
	for _, e := range tl.Events {
		switch e.Kind {
		case "first_exec":
			if e.Worker == nil || *e.Worker != 3 || e.Device == nil || *e.Device != 1 || e.Batch != 6 {
				t.Fatalf("exec event lost its lane: %+v", e)
			}
		default:
			if e.Worker != nil || e.Device != nil || e.Batch != 0 {
				t.Fatalf("%s event should not carry exec fields: %+v", e.Kind, e)
			}
		}
	}
}

// TestTimelineUnderConcurrentOverwrite reconstructs timelines while a
// writer is overwriting the same small ring. Run under -race this proves
// the seqlock read side; structurally, every observed timeline must obey
// the no-negative-since-admit invariant even when its records are being
// torn out from under the reader.
func TestTimelineUnderConcurrentOverwrite(t *testing.T) {
	o := NewObserver(NewRegistry(), 8)
	rp := o.NewRing("rp")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(1); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			rp.Write(Record{Kind: KindAdmit, Req: i, T0: i * 10})
			rp.Write(Record{Kind: KindFirstExec, Req: i, T0: i*10 + 3})
			rp.Write(Record{Kind: KindComplete, Req: i, T0: i*10 + 7})
		}
	}()
	for n := 0; n < 200; n++ {
		for _, tl := range o.Timelines(0) {
			for _, e := range tl.Events {
				if e.SinceAdmitNs < 0 {
					t.Errorf("req %d: negative since_admit_ns %d", tl.Req, e.SinceAdmitNs)
				}
			}
			if tl.QueuingNs < 0 || tl.ComputationNs < 0 {
				t.Errorf("req %d: negative latency split %+v", tl.Req, tl)
			}
		}
	}
	close(stop)
	wg.Wait()
}
