package main

import (
	"math"
	"sort"
)

// summary is one side's runs of one metric.
type summary struct{ Median, Q1, Q3 float64 }

// verdict compares the change's runs of one metric with the parent's, pair
// by pair, by the rule a claimed gain must meet: the change wins at least
// nine tenths of all pairs (ties count for neither side) and the medians
// differ, in the metric's better direction, by more than the distance
// between the parent's quartiles.
type verdict struct {
	Parent, Change      summary
	Pairs, Wins, Losses int
	// SignP is the two-sided sign test's p-value of the wins against the
	// losses: the chance of a split at least this uneven if either side
	// were as likely to win.
	SignP float64
	// Gain is how much better the change's median is than the parent's, as
	// a share of the parent's median: negative when it is worse.
	Gain float64
	// Spread is the distance between the parent's quartiles as a share of
	// its median.
	Spread float64
	Claim  bool // a gain may be claimed
	// Worse is set when the change's median is worse than the parent's by
	// more than the bound, Unresolved when the parent's own spread exceeds
	// the bound so that such a regression cannot be told from noise. Both
	// stay false for a metric without a bound.
	Worse, Unresolved bool
}

// compare judges paired runs: parent[i] and change[i] ran as pair i. better
// is "lower" or "higher"; bound is the metric's regression bound as a share
// of the parent's median, or 0 for none. It needs at least two pairs.
func compare(parent, change []float64, better string, bound float64) verdict {
	sign := 1.0 // +1: higher is better
	if better == "lower" {
		sign = -1
	}
	v := verdict{Parent: summarize(parent), Change: summarize(change), Pairs: len(parent)}
	for i := range parent {
		switch d := sign * (change[i] - parent[i]); {
		case d > 0:
			v.Wins++
		case d < 0:
			v.Losses++
		}
	}
	v.SignP = signTest(v.Wins, v.Losses)
	base := math.Abs(v.Parent.Median)
	v.Gain = sign * (v.Change.Median - v.Parent.Median) / base
	v.Spread = (v.Parent.Q3 - v.Parent.Q1) / base
	v.Claim = 10*v.Wins >= 9*v.Pairs && v.Gain > v.Spread
	if bound > 0 {
		v.Worse = -v.Gain > bound
		v.Unresolved = v.Spread > bound
	}
	return v
}

// signTest returns the two-sided binomial p-value of a wins/losses split
// under p = 1/2.
func signTest(wins, losses int) float64 {
	n, k := wins+losses, min(wins, losses)
	tail, term := 0.0, math.Pow(0.5, float64(n)) // term = C(n, i) / 2^n
	for i := 0; i <= k; i++ {
		tail += term
		term *= float64(n-i) / float64(i+1)
	}
	return min(1, 2*tail)
}

func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q1, q3 := quartiles(s)
	return summary{Median: median(s), Q1: q1, Q3: q3}
}

// median of sorted s: the mean of the two middle values for an even count.
func median(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles of sorted s (at least two values) by the exclusive method, as
// Python's statistics.quantiles(s, n=4) and the benchmark's own spread
// figures compute them.
func quartiles(s []float64) (q1, q3 float64) {
	n := len(s)
	cut := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}
