package conformance

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"batchmaker/internal/server"
	"batchmaker/internal/sim"
)

var (
	seedsFlag = flag.Int("seeds", 3, "number of conformance seeds to fuzz (CI nightly uses 64)")
	reproFlag = flag.String("repro", "", "replay a repro file written by a failing conformance run")
)

// modelSeed fixes the cell weights for every harness run; repro files carry
// it so replays rebuild identical tensors.
const modelSeed = 42

// scenario maps a seed to its workload configuration and engine options.
// Seeds cycle through three variants so every batch of seeds exercises the
// clean path, the disruption path (cancellations + deadlines), and the
// fault path (injected errors, panics and latency spikes):
//
//	seed%3 == 0  clean      every request must complete; cross-checked
//	             against the virtual-clock simulator
//	seed%3 == 1  disrupted  random cancellations and tight deadlines
//	seed%3 == 2  faulty     seeded fault injection (errors/panics/delays)
//
// The variant is a pure function of the seed, so a repro file's recorded
// seed is enough to rebuild the exact engine options of the failing run.
func scenario(seed uint64) (GenConfig, LiveOpts) {
	cfg := GenConfig{
		Requests:      24,
		ChainWeight:   3,
		TreeWeight:    2,
		Seq2SeqWeight: 2,
		MinLen:        1,
		MaxLen:        10,
		MaxLeaves:     10,
		MeanGap:       2 * time.Millisecond,
	}
	opts := LiveOpts{Workers: 2, MaxBatch: 8, MaxTasksToSubmit: 3}
	switch seed % 3 {
	case 1:
		cfg.PCancel = 0.3
		cfg.CancelAfterMax = 5 * time.Millisecond
		cfg.PDeadline = 0.3
		cfg.DeadlineMin = 3 * time.Millisecond
		cfg.DeadlineMax = 40 * time.Millisecond
	case 2:
		f := server.NewRandomFaults(seed)
		f.PError = 0.04
		f.PPanic = 0.02
		f.PDelay = 0.04
		f.Delay = 500 * time.Microsecond
		opts.Faults = f
	}
	return cfg, opts
}

// TestConformance is the seeded fuzzing loop: each seed generates a
// workload, runs it on the live pipeline, and checks the run against the
// invariant set and the sequential oracle; the virtual-clock simulator runs
// the same workload twice to prove schedule determinism. A failing seed is
// shrunk to a minimal failing workload and saved as a repro file.
func TestConformance(t *testing.T) {
	seeds := *seedsFlag
	if testing.Short() && seeds > 3 {
		seeds = 3
	}
	for i := 0; i < seeds; i++ {
		seed := uint64(1000 + i)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runSeed(t, seed)
		})
	}
}

func runSeed(t *testing.T, seed uint64) {
	t.Helper()
	cfg, opts := scenario(seed)
	m := NewModel(modelSeed)
	w := Generate(seed, cfg)
	oracle, err := Oracle(m, w)
	if err != nil {
		t.Fatalf("sequential oracle: %v", err)
	}

	// Virtual-clock oracle: the same workload, scheduled deterministically.
	// Two runs must produce byte-identical timelines, and the schedule must
	// satisfy the sim-side invariants (no double issue, pinning,
	// conservation; the driver itself refuses wedges and starvation).
	simOpts := SimOpts{Workers: opts.Workers, MaxBatch: opts.MaxBatch, MaxTasksToSubmit: opts.MaxTasksToSubmit}
	sim1, err := RunSim(m, w, simOpts)
	if err != nil {
		t.Fatalf("sim run: %v", err)
	}
	sim2, err := RunSim(m, w, simOpts)
	if err != nil {
		t.Fatalf("sim rerun: %v", err)
	}
	if len(sim1.Violations) > 0 {
		t.Fatalf("simulator invariant violations:\n%s", FormatViolations(sim1.Violations))
	}
	if len(sim1.Events) != len(sim2.Events) {
		t.Fatalf("sim nondeterminism: %d vs %d events", len(sim1.Events), len(sim2.Events))
	}
	for i := range sim1.Events {
		if sim1.Events[i] != sim2.Events[i] {
			t.Fatalf("sim nondeterminism at event %d:\n  run1: %s\n  run2: %s", i, sim1.Events[i], sim2.Events[i])
		}
	}

	// Live run + invariant check.
	res, err := RunLive(m, w, opts)
	if err != nil {
		t.Fatalf("live run: %v", err)
	}
	vs := Check(m, w, res, oracle)

	// Clean-variant cross-checks: with no disruption and no faults, every
	// request must complete in both engines with its full graph executed.
	if seed%3 == 0 && len(vs) == 0 {
		for _, r := range w.Reqs {
			if out := res.Outcome[r.Index]; out != OutcomeCompleted {
				vs = append(vs, Violation{Kind: "clean-incomplete", Req: r.Index,
					Detail: fmt.Sprintf("undisrupted request ended %v in live run", out)})
			}
			if out, ok := sim1.Outcome[r.Index]; !ok || out != OutcomeCompleted {
				vs = append(vs, Violation{Kind: "clean-incomplete", Req: r.Index,
					Detail: fmt.Sprintf("undisrupted request ended %v in sim run", out)})
			}
		}
	}
	if len(vs) == 0 {
		return
	}

	// Shrink to a minimal failing workload and persist a repro.
	t.Logf("seed %d failed with %d violations; shrinking...", seed, len(vs))
	fails := func(c *Workload) bool {
		or, err := Oracle(m, c)
		if err != nil {
			return false
		}
		r, err := RunLive(m, c, opts)
		if err != nil {
			return false
		}
		return len(Check(m, c, r, or)) > 0
	}
	small := Shrink(w, fails)
	path := filepath.Join(os.TempDir(), fmt.Sprintf("conformance-repro-seed%d.json", seed))
	if werr := WriteRepro(path, m, small, vs); werr != nil {
		t.Logf("writing repro: %v", werr)
	} else {
		t.Logf("repro (%d of %d requests) written to %s", len(small.Reqs), len(w.Reqs), path)
		t.Logf("replay with: go test ./internal/conformance -run TestConformanceReplay -repro=%s", path)
	}
	t.Fatalf("invariant violations at seed %d:\n%s", seed, FormatViolations(vs))
}

// TestConformanceReplay re-runs a saved repro file. It is skipped unless
// -repro is given:
//
//	go test ./internal/conformance -run TestConformanceReplay -repro=/tmp/conformance-repro-seed1001.json
func TestConformanceReplay(t *testing.T) {
	if *reproFlag == "" {
		t.Skip("no -repro file given")
	}
	m, w, err := LoadRepro(*reproFlag)
	if err != nil {
		t.Fatal(err)
	}
	_, opts := scenario(w.Seed)
	oracle, err := Oracle(m, w)
	if err != nil {
		t.Fatalf("sequential oracle: %v", err)
	}
	res, err := RunLive(m, w, opts)
	if err != nil {
		t.Fatalf("live run: %v", err)
	}
	if vs := Check(m, w, res, oracle); len(vs) > 0 {
		t.Fatalf("repro still fails:\n%s", FormatViolations(vs))
	}
	t.Logf("repro %s passed (%d requests) — the original failure did not reproduce", *reproFlag, len(w.Reqs))
}

// TestGenerateDeterministic pins the generator contract the whole harness
// rests on: same (seed, config) ⇒ identical workload.
func TestGenerateDeterministic(t *testing.T) {
	cfg, _ := scenario(1001)
	a := Generate(1001, cfg)
	b := Generate(1001, cfg)
	if len(a.Reqs) != len(b.Reqs) {
		t.Fatalf("request counts differ: %d vs %d", len(a.Reqs), len(b.Reqs))
	}
	for i := range a.Reqs {
		if a.Reqs[i].String() != b.Reqs[i].String() || a.Reqs[i].InputSeed != b.Reqs[i].InputSeed {
			t.Fatalf("request %d differs:\n  %v\n  %v", i, a.Reqs[i], b.Reqs[i])
		}
	}
	c := Generate(1002, cfg)
	same := len(a.Reqs) == len(c.Reqs)
	if same {
		for i := range a.Reqs {
			if a.Reqs[i].String() != c.Reqs[i].String() {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical workloads")
	}
}

// TestWorkloadSubset checks that shrinking preserves original indices.
func TestWorkloadSubset(t *testing.T) {
	cfg, _ := scenario(1001)
	w := Generate(7, cfg)
	s := w.Subset([]int{0, 3, 5})
	if len(s.Reqs) != 3 {
		t.Fatalf("subset has %d requests, want 3", len(s.Reqs))
	}
	if s.Reqs[0].Index != w.Reqs[0].Index || s.Reqs[1].Index != w.Reqs[3].Index || s.Reqs[2].Index != w.Reqs[5].Index {
		t.Fatal("subset did not preserve original request indices")
	}
}

// TestWorkloadSchedule pins the one Request → sim.Arrival conversion that
// both engines play: each arrival sits at the request's Arrival, and its
// cancel and expiry at Arrival plus their offsets, or 0 where unset.
func TestWorkloadSchedule(t *testing.T) {
	cfg, _ := scenario(1000) // seed%3 == 1: cancels and deadlines
	w := Generate(1000, cfg)
	sched := w.Schedule()
	var cancels, deadlines, plain int
	for _, r := range w.Reqs {
		a, ok := sched()
		if !ok {
			t.Fatalf("schedule ended before request %d", r.Index)
		}
		want := sim.Arrival{At: r.Arrival, Shape: r.Shape}
		if r.CancelAfter > 0 {
			want.Cancel = r.Arrival + r.CancelAfter
			cancels++
		}
		if r.Deadline > 0 {
			want.Expire = r.Arrival + r.Deadline
			deadlines++
		}
		if !r.Disrupted() {
			plain++
		}
		if a != want {
			t.Fatalf("request %d: arrival %+v, want %+v", r.Index, a, want)
		}
	}
	if _, ok := sched(); ok {
		t.Fatal("schedule yields more arrivals than the workload has requests")
	}
	if cancels == 0 || deadlines == 0 || plain == 0 {
		t.Fatalf("workload lacks a case: %d cancels, %d deadlines, %d undisrupted", cancels, deadlines, plain)
	}
}
