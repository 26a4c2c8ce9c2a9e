package obsv

import (
	"sync"
	"testing"
	"time"

	"batchmaker/internal/metrics"
)

func TestQuantilesEmptyAndBasics(t *testing.T) {
	q := NewQuantiles(8, nil)
	if q.Percentile(50) != 0 || q.Percentile(99) != 0 || q.Count() != 0 {
		t.Fatal("empty window must answer zeros")
	}
	for i := 1; i <= 4; i++ {
		q.Observe(time.Duration(i) * time.Millisecond)
	}
	if got := q.Percentile(50); got != 2*time.Millisecond {
		t.Fatalf("P50 = %v, want 2ms", got)
	}
	if got := q.Percentile(99); got != 4*time.Millisecond {
		t.Fatalf("P99 = %v, want 4ms", got)
	}
	if q.Count() != 4 {
		t.Fatalf("Count = %d", q.Count())
	}
}

func TestQuantilesEvictsOldest(t *testing.T) {
	q := NewQuantiles(4, nil)
	// 100ms..103ms fill the ring, then 1ms..4ms evict them all.
	for i := 0; i < 4; i++ {
		q.Observe(time.Duration(100+i) * time.Millisecond)
	}
	for i := 1; i <= 4; i++ {
		q.Observe(time.Duration(i) * time.Millisecond)
	}
	if got := q.Percentile(100); got != 4*time.Millisecond {
		t.Fatalf("max over window = %v, want 4ms (old samples not evicted)", got)
	}
	if q.Count() != 8 {
		t.Fatalf("Count = %d, want total observed 8", q.Count())
	}
}

func TestQuantilesMatchRecorderOnSmallInput(t *testing.T) {
	// With fewer samples than the window, Quantiles and the offline
	// metrics.Recorder agree exactly — through Percentile and through Query.
	ps := []float64{10, 50, 90, 99, 100}
	q := NewQuantiles(64, []float64{0.10, 0.50, 0.90, 0.99, 1})
	var r metrics.Recorder
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

func TestQuantilesSingleSample(t *testing.T) {
	q := NewQuantiles(8, nil)
	q.Observe(42 * time.Millisecond)
	// Every percentile of a one-sample window is that sample, including
	// the tiny-p path where nearest-rank rounds down to rank 0 and must be
	// clamped to 1.
	for _, p := range []float64{0.001, 1, 50, 99, 100} {
		if got := q.Percentile(p); got != 42*time.Millisecond {
			t.Fatalf("P%v = %v, want 42ms", p, got)
		}
	}
	if q.Count() != 1 {
		t.Fatalf("Count = %d, want 1", q.Count())
	}
}

func TestQuantilesExactCapacityWraparound(t *testing.T) {
	// Fill to exactly capacity: the ring's write cursor is back at slot 0,
	// and percentiles must still see all four retained samples.
	q := NewQuantiles(4, nil)
	for i := 1; i <= 4; i++ {
		q.Observe(time.Duration(i) * time.Millisecond)
	}
	if got := q.Percentile(100); got != 4*time.Millisecond {
		t.Fatalf("max = %v, want 4ms", got)
	}
	if got := q.Percentile(25); got != 1*time.Millisecond {
		t.Fatalf("P25 = %v, want 1ms", got)
	}
	// One more full lap: exactly capacity evictions, cursor again at 0.
	for i := 5; i <= 8; i++ {
		q.Observe(time.Duration(i) * time.Millisecond)
	}
	if got := q.Percentile(25); got != 5*time.Millisecond {
		t.Fatalf("P25 after wrap = %v, want 5ms (oldest lap not evicted)", got)
	}
	if got := q.Percentile(100); got != 8*time.Millisecond {
		t.Fatalf("max after wrap = %v, want 8ms", got)
	}
	if q.Count() != 8 {
		t.Fatalf("Count = %d, want total observed 8", q.Count())
	}
}

func TestQuantilesPartialWraparound(t *testing.T) {
	// 5 samples into capacity 3: retention is the last 3, mid-buffer cursor.
	q := NewQuantiles(3, nil)
	for i := 1; i <= 5; i++ {
		q.Observe(time.Duration(i) * time.Millisecond)
	}
	if got := q.Percentile(1); got != 3*time.Millisecond {
		t.Fatalf("min = %v, want 3ms", got)
	}
	if got := q.Percentile(50); got != 4*time.Millisecond {
		t.Fatalf("P50 = %v, want 4ms", got)
	}
}

func TestQuantilesPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: want panic", name)
			}
		}()
		f()
	}
	mustPanic("zero window", func() { NewQuantiles(0, nil) })
	mustPanic("negative window", func() { NewQuantiles(-1, nil) })
	q := NewQuantiles(2, nil)
	q.Observe(time.Millisecond)
	mustPanic("p=0", func() { q.Percentile(0) })
	mustPanic("p>100", func() { q.Percentile(100.5) })
}

// TestQuantilesConcurrentObserveQuery is the regression test for the PR-5
// bugfix: the live server's metrics registry answers quantile scrapes while
// the request processor keeps feeding the window. Before the ring carried
// its own lock this was a data race (the query copied buf while Observe
// rewrote it) that -race flags and that could return garbage ranks. The test
// hammers Observe against Percentile/Query/Sum/Count from several
// goroutines; correctness of the returned quantile is also sanity-bounded
// since all samples share one known range.
func TestQuantilesConcurrentObserveQuery(t *testing.T) {
	q := NewQuantiles(256, []float64{0.5, 0.9, 0.99})
	const writers, perWriter = 4, 5000
	lo, hi := time.Millisecond, 100*time.Millisecond

	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				d := lo + time.Duration(uint64(seed*perWriter+i)%100)*time.Millisecond
				q.Observe(d)
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	for {
		select {
		case <-done:
			if got := q.Count(); got != writers*perWriter {
				t.Fatalf("count: got %d want %d", got, writers*perWriter)
			}
			if q.Sum() <= 0 {
				t.Fatalf("sum: got %v", q.Sum())
			}
			return
		default:
		}
		_, vals := q.Query()
		for _, v := range append(vals, q.Percentile(95)) {
			if v != 0 && (v < lo || v > hi) {
				t.Fatalf("quantile %v outside sample range [%v, %v]", v, lo, hi)
			}
		}
		q.Sum()
		q.Count()
	}
}

func TestQuantilesSum(t *testing.T) {
	q := NewQuantiles(2, nil)
	if q.Sum() != 0 {
		t.Fatal("empty window sum should be 0")
	}
	q.Observe(time.Second)
	q.Observe(2 * time.Second)
	q.Observe(3 * time.Second) // evicts the first sample from the window…
	if got := q.Sum(); got != 6*time.Second {
		t.Fatalf("…but Sum is all-time: got %v want 6s", got)
	}
	if got := q.Percentile(99); got != 3*time.Second {
		t.Fatalf("p99 over retained window: got %v", got)
	}
}
