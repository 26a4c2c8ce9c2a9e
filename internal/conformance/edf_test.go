package conformance

import (
	"strings"
	"testing"
	"time"

	"batchmaker/internal/sim"
)

// TestSimRunsDeadlinesEDF pins the simulator oracle to the live server's
// queue order: a request with a deadline is batched before an earlier
// deadline-less one. One worker runs one single-row task at a time, and
// request 1 (with a deadline) arrives while request 0's first cell runs, so
// under EDF all of request 1's cells precede request 0's second.
func TestSimRunsDeadlinesEDF(t *testing.T) {
	chain := sim.Shape{Kind: sim.KindChain, Len: 4}
	w := &Workload{Reqs: []*Request{
		{Index: 0, Shape: chain},
		{Index: 1, Shape: chain, Arrival: time.Microsecond, Deadline: time.Second},
	}}
	res, err := RunSim(NewModel(modelSeed), w, SimOpts{Workers: 1, MaxBatch: 1, MaxTasksToSubmit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) > 0 {
		t.Fatalf("violations:\n%s", FormatViolations(res.Violations))
	}
	pos := func(rows string) int {
		for i, e := range res.Events {
			if strings.Contains(e, "rows=["+rows+"]") {
				return i
			}
		}
		t.Fatalf("no task ran rows %s:\n%s", rows, strings.Join(res.Events, "\n"))
		return -1
	}
	second := pos("0/1")
	for _, rows := range []string{"1/0", "1/1", "1/2", "1/3"} {
		if pos(rows) > second {
			t.Fatalf("request 1's row %s ran after request 0's second cell:\n%s", rows, strings.Join(res.Events, "\n"))
		}
	}
	for idx, out := range res.Outcome {
		if out != OutcomeCompleted {
			t.Errorf("request %d ended %v", idx, out)
		}
	}
}
