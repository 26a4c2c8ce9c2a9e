package sim

import (
	"testing"
	"testing/quick"
	"time"

	"batchmaker/internal/obsv"
)

func TestRecorderPercentiles(t *testing.T) {
	var r Recorder
	for i := 1; i <= 100; i++ {
		r.Add(time.Duration(i) * time.Millisecond)
	}
	if r.Count() != 100 {
		t.Fatalf("count = %d", r.Count())
	}
	if got := r.P50(); got != 50*time.Millisecond {
		t.Fatalf("p50 = %v", got)
	}
	if got := r.P90(); got != 90*time.Millisecond {
		t.Fatalf("p90 = %v", got)
	}
	if got := r.P99(); got != 99*time.Millisecond {
		t.Fatalf("p99 = %v", got)
	}
	if got := r.Percentile(100); got != 100*time.Millisecond {
		t.Fatalf("p100 = %v", got)
	}
	if got := r.Min(); got != 1*time.Millisecond {
		t.Fatalf("min = %v", got)
	}
	if got := r.Mean(); got != 50500*time.Microsecond {
		t.Fatalf("mean = %v", got)
	}
}

func TestRecorderEmpty(t *testing.T) {
	var r Recorder
	if r.P50() != 0 || r.Mean() != 0 || r.Min() != 0 {
		t.Fatal("empty recorder must return zeros")
	}
	if r.CDF(10) != nil {
		t.Fatal("empty CDF must be nil")
	}
}

func TestRecorderAddAfterQueryResorts(t *testing.T) {
	var r Recorder
	r.Add(5 * time.Millisecond)
	_ = r.P50()
	r.Add(1 * time.Millisecond)
	if got := r.Min(); got != 1*time.Millisecond {
		t.Fatalf("min after re-add = %v", got)
	}
}

func TestPercentilePanics(t *testing.T) {
	var r Recorder
	r.Add(time.Millisecond)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	r.Percentile(0)
}

func TestCDFMonotone(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		var r Recorder
		for _, v := range raw {
			r.Add(time.Duration(v) * time.Microsecond)
		}
		pts := r.CDF(8)
		for i := 1; i < len(pts); i++ {
			if pts[i].Value < pts[i-1].Value || pts[i].Fraction < pts[i-1].Fraction {
				return false
			}
		}
		return len(pts) > 0 && pts[len(pts)-1].Fraction == 1.0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuantilesMatchRecorderOnSmallInput(t *testing.T) {
	// With fewer samples than the window, the live server's
	// obsv.Quantiles and the simulator's Recorder agree exactly — through
	// Percentile and through Query.
	ps := []float64{10, 50, 90, 99, 100}
	q := obsv.NewQuantiles(64, []float64{0.10, 0.50, 0.90, 0.99, 1})
	var r Recorder
	for _, d := range []time.Duration{7, 3, 9, 1, 5, 2, 8} {
		q.Observe(d)
		r.Add(d)
	}
	_, vals := q.Query()
	for i, p := range ps {
		if q.Percentile(p) != r.Percentile(p) || vals[i] != r.Percentile(p) {
			t.Fatalf("P%v: percentile %v, query %v != recorder %v", p, q.Percentile(p), vals[i], r.Percentile(p))
		}
	}
}

// TestCollectorLatencySplit checks the §7.3 breakdown a collector records
// per request: queuing is arrival to first execution, computation first
// execution to completion, latency their sum.
func TestCollectorLatencySplit(t *testing.T) {
	c := newCollector("split", RunConfig{Duration: time.Second})
	c.record(10*time.Millisecond, 14*time.Millisecond, 30*time.Millisecond)
	res := c.result()
	if got := res.Queuing.P50(); got != 4*time.Millisecond {
		t.Fatalf("queuing = %v", got)
	}
	if got := res.Computation.P50(); got != 16*time.Millisecond {
		t.Fatalf("computation = %v", got)
	}
	if got := res.Latency.P50(); got != 20*time.Millisecond {
		t.Fatalf("latency = %v", got)
	}
	if res.Completed != 1 {
		t.Fatalf("completed = %d", res.Completed)
	}
}
