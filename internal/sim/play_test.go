package sim

import (
	"testing"
	"time"
)

// TestPlayKeepsScheduleTime pins the live player: submit runs in schedule
// order on one t0, never before its arrival's scheduled instant, and Play
// returns only after the last arrival was submitted.
func TestPlayKeepsScheduleTime(t *testing.T) {
	ms := time.Millisecond
	at := []time.Duration{0, 0, 1 * ms, 3 * ms, 6 * ms}
	as := make([]Arrival, len(at))
	for i, d := range at {
		as[i] = Arrival{At: d, Shape: Shape{Kind: KindChain, Len: i + 1}}
	}
	var (
		order []int
		first time.Time
	)
	Play(Replay(as), func(a Arrival, t0 time.Time) {
		if now := time.Now(); now.Before(t0.Add(a.At)) {
			t.Errorf("arrival %d submitted %v before its scheduled instant", a.Shape.Len-1, t0.Add(a.At).Sub(now))
		}
		if len(order) == 0 {
			first = t0
		} else if !t0.Equal(first) {
			t.Errorf("arrival %d got t0 %v, the first got %v", a.Shape.Len-1, t0, first)
		}
		order = append(order, a.Shape.Len-1)
	})
	done := time.Now()
	for i, got := range order {
		if got != i {
			t.Fatalf("submit order %v, want schedule order", order)
		}
	}
	if len(order) != len(as) {
		t.Fatalf("Play returned after %d of %d arrivals", len(order), len(as))
	}
	if last := first.Add(at[len(at)-1]); done.Before(last) {
		t.Fatalf("Play returned %v before the last arrival's instant", last.Sub(done))
	}
}
