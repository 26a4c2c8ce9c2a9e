package obsv

import (
	"bufio"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

// writeLifecycle plays a known request history into an observer's rings:
// req 1 admits, first-executes, completes; req 2 admits, first-executes,
// fails; req 3 admits and stays in flight.
func timelineObserver() *Observer {
	o := NewObserver(NewRegistry(), 64)
	rp := o.NewRing("rp")
	w0 := o.NewRing("worker-0")
	rp.Write(Record{Kind: KindAdmit, Req: 1, T0: 100})
	rp.Write(Record{Kind: KindAdmit, Req: 2, T0: 150})
	w0.Write(Record{Kind: KindFirstExec, Req: 1, T0: 300})
	w0.Write(Record{Kind: KindFirstExec, Req: 2, T0: 350})
	rp.Write(Record{Kind: KindComplete, Req: 1, T0: 900})
	rp.Write(Record{Kind: KindFail, Req: 2, T0: 500})
	rp.Write(Record{Kind: KindAdmit, Req: 3, T0: 1000})
	// Span records must not leak into timelines.
	w0.Write(Record{Kind: KindTaskExec, Worker: 0, Type: 1, Batch: 2, T0: 310, T1: 320})
	return o
}

func TestTimelineReconstruction(t *testing.T) {
	o := timelineObserver()
	tls := o.Timelines(0)
	if len(tls) != 3 {
		t.Fatalf("want 3 timelines, got %d", len(tls))
	}
	// Newest admit first.
	if tls[0].Req != 3 || tls[1].Req != 2 || tls[2].Req != 1 {
		t.Fatalf("order: got %d,%d,%d want 3,2,1", tls[0].Req, tls[1].Req, tls[2].Req)
	}

	one := tls[2]
	kinds := make([]string, len(one.Events))
	for i, e := range one.Events {
		kinds[i] = e.Kind
	}
	if got := strings.Join(kinds, ","); got != "admit,first_exec,complete" {
		t.Fatalf("req 1 ordering: %s", got)
	}
	if one.Outcome != "complete" {
		t.Fatalf("req 1 outcome: %q", one.Outcome)
	}
	if one.QueuingNs != 200 || one.ComputationNs != 600 {
		t.Fatalf("req 1 latency split: queuing=%d computation=%d", one.QueuingNs, one.ComputationNs)
	}

	two := tls[1]
	if two.Outcome != "fail" || two.QueuingNs != 200 || two.ComputationNs != 150 {
		t.Fatalf("req 2: %+v", two)
	}

	three := tls[0]
	if three.Outcome != "" || len(three.Events) != 1 {
		t.Fatalf("req 3 should be in flight with one event: %+v", three)
	}
}

func TestTimelineLimit(t *testing.T) {
	o := timelineObserver()
	tls := o.Timelines(2)
	if len(tls) != 2 || tls[0].Req != 3 || tls[1].Req != 2 {
		t.Fatalf("limit=2 should keep the 2 newest: %+v", tls)
	}
}

func TestDebugRequestsEndpoint(t *testing.T) {
	o := timelineObserver()
	srv := httptest.NewServer(Handler(o, nil))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/debug/requests?limit=10")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var lines []Timeline
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var tl Timeline
		if err := json.Unmarshal(sc.Bytes(), &tl); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		lines = append(lines, tl)
	}
	if len(lines) != 3 {
		t.Fatalf("want 3 JSONL lines, got %d", len(lines))
	}
	if lines[2].Req != 1 || lines[2].Outcome != "complete" {
		t.Fatalf("req 1 line: %+v", lines[2])
	}
}

func TestHealthzEndpoint(t *testing.T) {
	o := NewObserver(NewRegistry(), 8)
	health := Health{Status: "serving"}
	srv := httptest.NewServer(Handler(o, func() Health { return health }))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("serving should answer 200, got %d", resp.StatusCode)
	}

	health = Health{Status: "draining", Draining: true}
	resp, err = srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 || !h.Draining {
		t.Fatalf("draining should answer 503 with draining=true, got %d %+v", resp.StatusCode, h)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	o := goldenObserver()
	srv := httptest.NewServer(Handler(o, nil))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	var b strings.Builder
	if _, err := bufio.NewReader(resp.Body).WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != goldenProm {
		t.Fatal("/metrics body should match the golden exposition")
	}
}

func TestSummaryRenders(t *testing.T) {
	o := goldenObserver()
	var b strings.Builder
	o.Metrics.WriteSummary(&b)
	out := b.String()
	for _, want := range []string{"admitted=10", "latency split", "batch occupancy", "top cell types", "lstm"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
	var nilM *ServingMetrics
	b.Reset()
	nilM.WriteSummary(&b)
	if !strings.Contains(b.String(), "disabled") {
		t.Fatal("nil metrics summary should say disabled")
	}
}
