package obsv

import (
	"bufio"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestHealthzEndpoint(t *testing.T) {
	o := testObserver(8)
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
