package policy

import (
	"testing"
	"time"

	"batchmaker/internal/obsv"
)

// TestFeasibilityRule drives the controller through scripted call sequences:
// a step with rows > 0 retires a task (Completed), any other step is an
// admission (Admit) whose verdict and priced wait are checked. Throughout,
// the MaxBatch gauge must hold the static bound.
func TestFeasibilityRule(t *testing.T) {
	const sla = 10 * time.Millisecond
	type step struct {
		at      time.Duration
		rows    int // > 0: Completed(at, rows, 0, exec)
		exec    time.Duration
		backlog int // rows == 0: Admit(at, backlog)
		admit   bool
		wait    time.Duration
	}
	// price100us retires four rows in 400 µs: a price of 100 µs per cell,
	// so a backlog of 100 cells per worker is exactly the SLA.
	price100us := step{rows: 4, exec: 400 * time.Microsecond}
	many := func(n int, s step) []step {
		out := make([]step, n)
		for i := range out {
			out[i] = s
		}
		return out
	}
	cases := []struct {
		name         string
		steps        []step
		flips, sheds int64
	}{
		{
			name: "warm-up admits at any backlog",
			steps: []step{
				{backlog: 0, admit: true},
				{backlog: 1 << 20, admit: true},
			},
		},
		{
			name: "shed iff backlog x price exceeds the SLA",
			steps: []step{
				price100us,
				{backlog: 50, admit: true, wait: 5 * time.Millisecond},
				{backlog: 100, admit: true, wait: sla},
				{backlog: 101, wait: 10100 * time.Microsecond},
				{backlog: 300, wait: 30 * time.Millisecond},
				{backlog: 0, admit: true},
			},
			flips: 2, sheds: 2,
		},
		{
			name: "herd after a quiet gap is priced like the traffic before it",
			steps: []step{
				price100us,
				{at: time.Millisecond, backlog: 150, wait: 15 * time.Millisecond},
				{at: time.Millisecond, backlog: 10, admit: true, wait: time.Millisecond},
				{at: time.Hour, backlog: 150, wait: 15 * time.Millisecond},
				{at: time.Hour, backlog: 10, admit: true, wait: time.Millisecond},
			},
			flips: 4, sheds: 2,
		},
		{
			name: "the price averages the last window tasks only",
			steps: append(append(
				many(window, step{rows: 1, exec: time.Millisecond}),
				many(window, step{rows: 2, exec: 20 * time.Microsecond})...),
				step{backlog: 1000, admit: true, wait: sla},
				step{backlog: 1001, wait: 10010 * time.Microsecond},
			),
			flips: 1, sheds: 1,
		},
		{
			name: "tasks without rows or time leave the price unchanged",
			steps: []step{
				price100us,
				{rows: 3},
				{backlog: 100, admit: true, wait: sla},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pm := obsv.NewPolicyMetrics(obsv.NewRegistry())
			c := New(Config{Mode: ModeFull, SLA: sla}, []TypeBounds{{Key: "lstm", Min: 1, Max: 32}}, pm)
			for i, s := range tc.steps {
				if s.rows > 0 {
					c.Completed(int64(s.at), s.rows, 0, s.exec)
				} else {
					d := c.Admit(int64(s.at), s.backlog)
					if d.Admit != s.admit || d.EstWait != s.wait {
						t.Fatalf("step %d: backlog %d gave %+v, want admit=%v wait=%v", i, s.backlog, d, s.admit, s.wait)
					}
					if d.Admit && d.RetryAfter != 0 {
						t.Fatalf("step %d: admitted with retry-after %v", i, d.RetryAfter)
					}
					if want := max(s.wait-sla, time.Millisecond); !d.Admit && d.RetryAfter != want {
						t.Fatalf("step %d: retry-after %v, want %v", i, d.RetryAfter, want)
					}
					if shedding := pm.Shedding.Value() == 1; shedding == d.Admit {
						t.Fatalf("step %d: shedding gauge %v after admit=%v", i, shedding, d.Admit)
					}
				}
				if got := pm.MaxBatch("lstm").Value(); got != 32 {
					t.Fatalf("step %d: MaxBatch gauge %d, want the static 32", i, got)
				}
			}
			if got := pm.GateFlips.Value(); got != tc.flips {
				t.Fatalf("gate flips %d, want %d", got, tc.flips)
			}
			if got := pm.Sheds.Value(); got != tc.sheds {
				t.Fatalf("sheds %d, want %d", got, tc.sheds)
			}
		})
	}
}

// TestControllerDisabled pins the nil-on-off contract.
func TestControllerDisabled(t *testing.T) {
	if c := New(Config{}, nil, nil); c != nil {
		t.Fatal("ModeOff must yield a nil controller")
	}
	if c := New(Config{Mode: ModeFull}, nil, nil); c != nil {
		t.Fatal("missing SLA must yield a nil controller")
	}
}
