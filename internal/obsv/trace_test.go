package obsv

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
)

// traceBaseNs is the fixture's first timestamp: a realistic unix-ns value,
// so the golden also proves the rebasing keeps sub-microsecond resolution
// at magnitudes where float64 microseconds alone could not.
const traceBaseNs = int64(1_700_000_000_000_000_000)

// traceObserver plays a deterministic two-request history across every
// track the assembler knows: admits and terminals on the request
// processor, a group-commit flush + fsync + durability acks on the journal
// track, a dispatch and a rebalance on the scheduler, and first-exec +
// batched task-exec slices on two workers across two device pools.
// testObserver builds an observer whose rings hold ringCap records,
// reporting serving metrics with no cell types and no workers.
func testObserver(ringCap int) *Observer {
	return NewObserver(NewServingMetrics(NewRegistry(), nil, nil, 0), ringCap)
}

func traceObserver() *Observer {
	o := testObserver(64)
	o.SetTypes([]string{"lstm"}, []int{8}) // records name it Type 1
	rp := o.NewRing("rp")
	sched := o.NewRing("sched")
	w0 := o.NewRing("worker-0")
	w1 := o.NewRing("worker-1")
	jr := o.NewRing("journal")

	at := func(us int64) int64 { return traceBaseNs + us*1000 }

	rp.Write(Record{Kind: KindAdmit, Req: 1, T0: at(0)})
	rp.Write(Record{Kind: KindAdmit, Req: 2, T0: at(5)})
	rp.Write(Record{Kind: KindPolicyShed, T0: at(8)})
	rp.Write(Record{Kind: KindReject, T0: at(9)})
	jr.Write(Record{Kind: KindJournalFlush, Batch: 2, T0: at(10), T1: at(40)})
	jr.Write(Record{Kind: KindJournalFsync, T0: at(45), T1: at(90)})
	jr.Write(Record{Kind: KindJournalDurable, Req: 1, T0: at(95)})
	jr.Write(Record{Kind: KindJournalDurable, Req: 2, T0: at(96)})
	sched.Write(Record{Kind: KindDispatch, Worker: 0, Type: 1, Batch: 2, Queue: 1, T0: at(100)})
	w0.Write(Record{Kind: KindFirstExec, Worker: 0, Batch: 2, Req: 1, T0: at(110)})
	w0.Write(Record{Kind: KindFirstExec, Worker: 0, Batch: 2, Req: 2, T0: at(111)})
	w0.Write(Record{Kind: KindTaskExec, Worker: 0, Type: 1, Batch: 2, Queue: 1, T0: at(100), T1: at(400)})
	// A second device pool's worker running a migrated remote batch.
	sched.Write(Record{Kind: KindDispatch, Worker: 1, Type: 1, Batch: 1, Device: 1,
		Flags: FlagRemote | FlagMigrated, T0: at(150)})
	w1.Write(Record{Kind: KindTaskExec, Worker: 1, Type: 1, Batch: 1, Device: 1,
		Flags: FlagRemote | FlagMigrated, T0: at(150), T1: at(300)})
	sched.Write(Record{Kind: KindRebalance, Batch: 3, T0: at(420)})
	rp.Write(Record{Kind: KindComplete, Req: 1, T0: at(500)})
	rp.Write(Record{Kind: KindFail, Req: 2, T0: at(510)})
	return o
}

const traceGoldenPath = "testdata/trace_golden.json"

// TestTraceGolden pins the exact trace-event JSON the assembler produces
// for the fixture history — event names, phases, track IDs, flow
// bindings, args, and timestamp rebasing. A diff here means saved traces
// and Perfetto dashboards change meaning: regenerate deliberately with
// GOLDEN_OUT=1 go test ./internal/obsv -run TestTraceGolden
func TestTraceGolden(t *testing.T) {
	var b bytes.Buffer
	if err := traceObserver().WriteTrace(&b, TraceOptions{}); err != nil {
		t.Fatal(err)
	}
	if os.Getenv("GOLDEN_OUT") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(traceGoldenPath, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", traceGoldenPath, b.Len())
		return
	}
	want, err := os.ReadFile(traceGoldenPath)
	if err != nil {
		t.Fatalf("missing golden (regenerate with GOLDEN_OUT=1): %v", err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Fatalf("trace drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", b.String(), want)
	}
}

// decodedTrace is the generic shape the schema checks read the JSON into.
type decodedTrace struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	// BaseUnixNs decodes into an int64 so the check is exact — a float64
	// round-trip at unix-ns magnitude loses the low bits (which is the
	// whole reason WriteTrace rebases timestamps).
	OtherData struct {
		BaseUnixNs int64  `json:"base_unix_ns"`
		Source     string `json:"source"`
	} `json:"otherData"`
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  *float64       `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		ID   int64          `json:"id"`
		BP   string         `json:"bp"`
		S    string         `json:"s"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

func decodeTrace(t *testing.T, o *Observer, opt TraceOptions) decodedTrace {
	t.Helper()
	var b bytes.Buffer
	if err := o.WriteTrace(&b, opt); err != nil {
		t.Fatal(err)
	}
	var doc decodedTrace
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, b.String())
	}
	return doc
}

// TestTraceSchemaValid checks the structural invariants a Perfetto load
// depends on, independently of the golden bytes: known phases, declared
// tracks, non-negative rebased timestamps and durations.
func TestTraceSchemaValid(t *testing.T) {
	doc := decodeTrace(t, traceObserver(), TraceOptions{})
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit %q", doc.DisplayTimeUnit)
	}
	if doc.OtherData.BaseUnixNs != traceBaseNs {
		t.Fatalf("otherData.base_unix_ns = %d, want %d", doc.OtherData.BaseUnixNs, traceBaseNs)
	}
	threads := map[[2]int]bool{}
	procs := map[int]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "M" {
			continue
		}
		switch ev.Name {
		case "process_name":
			procs[ev.Pid] = true
		case "thread_name":
			threads[[2]int{ev.Pid, ev.Tid}] = true
		default:
			t.Fatalf("unknown metadata event %q", ev.Name)
		}
	}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			continue
		case "X", "i", "s", "t", "f":
		default:
			t.Fatalf("unknown phase %q on event %q", ev.Ph, ev.Name)
		}
		if ev.Ts < 0 {
			t.Fatalf("event %q has negative rebased ts %f", ev.Name, ev.Ts)
		}
		if ev.Ph == "X" && (ev.Dur == nil || *ev.Dur < 0) {
			t.Fatalf("slice %q has missing or negative dur", ev.Name)
		}
		if !procs[ev.Pid] || !threads[[2]int{ev.Pid, ev.Tid}] {
			t.Fatalf("event %q on undeclared track pid=%d tid=%d", ev.Name, ev.Pid, ev.Tid)
		}
		if ev.Ph == "i" && ev.S != "t" {
			t.Fatalf("instant %q missing thread scope", ev.Name)
		}
		if ev.Ph == "f" && ev.BP != "e" {
			t.Fatalf("flow end %q must bind to its enclosing slice (bp=e)", ev.Name)
		}
	}
	// Annotated batch slice: occupancy/padding resolved from the
	// type detail, flags decoded.
	var sawAnnotated bool
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.Name != "lstm" || ev.Args == nil {
			continue
		}
		if ev.Args["remote"] == true && ev.Args["migrated"] == true {
			sawAnnotated = true
			if occ, ok := ev.Args["occupancy"].(float64); !ok || occ != 1.0/8 {
				t.Fatalf("remote slice occupancy = %v, want 0.125", ev.Args["occupancy"])
			}
			if pw, ok := ev.Args["padding_waste"].(float64); !ok || pw != 7 {
				t.Fatalf("remote slice padding_waste = %v, want 7", ev.Args["padding_waste"])
			}
		}
	}
	if !sawAnnotated {
		t.Fatal("no annotated remote+migrated batch slice in the trace")
	}
}

// TestTraceFlowChains asserts the causal arrows: each completed request
// has a flow start on the request-processor track, flow steps through the
// journal and worker tracks, and a flow end back on the
// request-processor track — at least one arrow crossing from the pipeline
// process into a device-pool process.
func TestTraceFlowChains(t *testing.T) {
	doc := decodeTrace(t, traceObserver(), TraceOptions{})
	type hop struct {
		ph  string
		pid int
		ts  float64
	}
	flows := map[int64][]hop{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "s", "t", "f":
			flows[ev.ID] = append(flows[ev.ID], hop{ev.Ph, ev.Pid, ev.Ts})
		}
	}
	for _, req := range []int64{1, 2} {
		hops := flows[req]
		if len(hops) < 3 {
			t.Fatalf("req %d has %d flow hops, want at least s→t→f", req, len(hops))
		}
		if hops[0].ph != "s" || hops[0].pid != tracePidPipeline {
			t.Fatalf("req %d flow must start on the pipeline track: %+v", req, hops[0])
		}
		last := hops[len(hops)-1]
		if last.ph != "f" || last.pid != tracePidPipeline {
			t.Fatalf("req %d flow must end on the pipeline track: %+v", req, last)
		}
		cross := false
		for i, h := range hops {
			if h.pid >= tracePidDeviceOff {
				cross = true
			}
			if i > 0 && h.ts < hops[i-1].ts {
				t.Fatalf("req %d flow hops go backwards in time: %+v", req, hops)
			}
			if i > 0 && i < len(hops)-1 && h.ph != "t" {
				t.Fatalf("req %d interior hop must be a step: %+v", req, h)
			}
		}
		if !cross {
			t.Fatalf("req %d flow never crosses into a device-pool track: %+v", req, hops)
		}
	}
}

// TestTraceSinceFilter drops records older than the cutoff and rebases to
// the new earliest record.
func TestTraceSinceFilter(t *testing.T) {
	cut := traceBaseNs + 420*1000
	doc := decodeTrace(t, traceObserver(), TraceOptions{SinceNs: cut})
	if doc.OtherData.BaseUnixNs != cut {
		t.Fatalf("since filter should rebase to the cutoff-era earliest record, got base %d", doc.OtherData.BaseUnixNs)
	}
	for _, ev := range doc.TraceEvents {
		if ev.Name == "admit" {
			t.Fatal("admit slices predate the cutoff and must be filtered")
		}
	}
}

// TestTraceEmptyAndNil: an observer with no records (and a nil observer)
// must still produce a loadable document with an events array.
func TestTraceEmptyAndNil(t *testing.T) {
	for name, o := range map[string]*Observer{
		"empty": testObserver(8),
		"nil":   nil,
	} {
		var b bytes.Buffer
		if err := o.WriteTrace(&b, TraceOptions{}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(b.String(), `"traceEvents":[]`) {
			t.Fatalf("%s: traceEvents must be an empty array, got %s", name, b.String())
		}
	}
}

// TestDebugTraceEndpoint smokes /debug/trace, including the ?since=
// parameter.
func TestDebugTraceEndpoint(t *testing.T) {
	srv := httptest.NewServer(Handler(traceObserver(), nil))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var doc decodedTrace
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("endpoint body is not a trace document: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("endpoint returned an empty trace for a populated observer")
	}

	since := fmt.Sprintf("%d", traceBaseNs+500*1000)
	resp2, err := srv.Client().Get(srv.URL + "/debug/trace?since=" + since)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var filtered decodedTrace
	if err := json.NewDecoder(resp2.Body).Decode(&filtered); err != nil {
		t.Fatal(err)
	}
	if len(filtered.TraceEvents) >= len(doc.TraceEvents) {
		t.Fatalf("since filter kept %d of %d events — filter not applied",
			len(filtered.TraceEvents), len(doc.TraceEvents))
	}

	// A malformed cutoff is the client's error, not a request for the
	// whole trace.
	resp3, err := srv.Client().Get(srv.URL + "/debug/trace?since=yesterday")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "invalid syntax") {
		t.Fatalf("since=yesterday: status %d body %q, want 400 with the parse error", resp3.StatusCode, body)
	}
}

// TestTraceUnderConcurrentOverwrite assembles traces while a writer
// overwrites the same small ring. Run under -race this proves the seqlock
// read side; structurally, every trace must decode, with no negative
// timestamp or duration, even as records are torn out from under the
// reader (a flow may then lose its start or its end, never its order).
func TestTraceUnderConcurrentOverwrite(t *testing.T) {
	o := testObserver(8)
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
		doc := decodeTrace(t, o, TraceOptions{})
		last := map[int64]float64{}
		for _, ev := range doc.TraceEvents {
			if ev.Ts < 0 || (ev.Dur != nil && *ev.Dur < 0) {
				t.Fatalf("negative time in %+v", ev)
			}
			switch ev.Ph {
			case "s", "t", "f":
				if prev, ok := last[ev.ID]; ok && ev.Ts < prev {
					t.Fatalf("req %d flow goes backwards: %v after %v", ev.ID, ev.Ts, prev)
				}
				last[ev.ID] = ev.Ts
			}
		}
	}
	close(stop)
	wg.Wait()
}
