package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// TestQuartilesMatchPython pins the quartiles to Python's
// statistics.quantiles(xs, n=4), values computed with it.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{17.2, 16.9, 17.0, 17.4, 16.8, 17.1, 17.3, 16.95, 17.05, 17.5}, 16.9375, 17.325},
	} {
		s := summarize(tc.xs)
		if !near(s.Q1, tc.q1) || !near(s.Q3, tc.q3) {
			t.Errorf("quartiles of %v = %v, %v; want %v, %v", tc.xs, s.Q1, s.Q3, tc.q1, tc.q3)
		}
	}
	if s := summarize([]float64{4, 1, 3, 2}); s.Median != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", s.Median)
	}
}

func TestCompare(t *testing.T) {
	parent := []float64{17.2, 16.9, 17.0, 17.4, 16.8, 17.1, 17.3, 16.95, 17.05, 17.5}
	lower := make([]float64, len(parent))
	for i, p := range parent {
		lower[i] = p - 1 // every pair won, medians 1 MB apart
	}
	v := compare(parent, lower, "lower", 0.1)
	if v.Wins != 10 || v.Losses != 0 || v.Pairs != 10 || !v.Claim || v.Worse || v.Unresolved {
		t.Fatalf("a clear fall in a lower-is-better metric: %+v", v)
	}
	if !near(v.Gain, 1/17.075) || !near(v.Spread, (17.325-16.9375)/17.075) {
		t.Fatalf("gain %v, spread %v", v.Gain, v.Spread)
	}

	// The same numbers read higher-is-better are a loss past a 5 % bound.
	v = compare(parent, lower, "higher", 0.05)
	if v.Wins != 0 || v.Claim || !v.Worse {
		t.Fatalf("a clear fall in a higher-is-better metric: %+v", v)
	}

	// Nine wins of ten still claim; eight do not. Ties count for neither.
	nine := append([]float64(nil), lower...)
	nine[0] = parent[0] + 1
	if v := compare(parent, nine, "lower", 0); v.Wins != 9 || !v.Claim {
		t.Fatalf("nine wins of ten: %+v", v)
	}
	eight := append([]float64(nil), nine...)
	eight[1] = parent[1]
	if v := compare(parent, eight, "lower", 0); v.Wins != 8 || v.Losses != 1 || v.Claim {
		t.Fatalf("eight wins and a tie of ten: %+v", v)
	}

	// Every pair won, but by less than the parent's own spread: no claim.
	small := make([]float64, len(parent))
	for i, p := range parent {
		small[i] = p - 0.05
	}
	if v := compare(parent, small, "lower", 0); v.Wins != 10 || v.Claim {
		t.Fatalf("a gain inside the parent's spread: %+v", v)
	}

	// A parent spread past the bound leaves a regression unresolved.
	noisy := []float64{10, 14, 10, 14, 10, 14}
	if v := compare(noisy, noisy, "lower", 0.1); !v.Unresolved || v.Worse {
		t.Fatalf("a parent spread of 40 %% against a 10 %% bound: %+v", v)
	}
}

// TestSignTest pins the two-sided sign test to binomial tails computed by
// hand: 2 · Σ_{i≤k} C(n, i) / 2^n.
func TestSignTest(t *testing.T) {
	for _, tc := range []struct {
		wins, losses int
		p            float64
	}{
		{10, 0, 2.0 / 1024},
		{9, 1, 2 * 11.0 / 1024},
		{0, 10, 2.0 / 1024},
		{5, 5, 1},
		{0, 0, 1},
	} {
		if got := signTest(tc.wins, tc.losses); !near(got, tc.p) {
			t.Errorf("signTest(%d, %d) = %v, want %v", tc.wins, tc.losses, got, tc.p)
		}
	}
}
