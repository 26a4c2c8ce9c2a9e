package conformance

import (
	"path/filepath"
	"testing"
	"time"

	"batchmaker/internal/core"
	"batchmaker/internal/server"
	"batchmaker/internal/sim"
)

// slowKernel delays every execution attempt by a fixed amount, turning the
// single worker into a deterministic bottleneck for the bug workload.
type slowKernel struct{ d time.Duration }

func (f slowKernel) Inject(typeKey string, batch int) server.FaultDecision {
	return server.FaultDecision{Kind: server.FaultDelay, Delay: f.d}
}

// bugCancelAfter and bugKernelDelay pin the defect window: every victim is
// cancelled well before the first (and only possible) in-flight task
// finishes, so all but the first victim are provably idle at cancel time.
const (
	bugCancelAfter = 2 * time.Millisecond
	bugKernelDelay = 15 * time.Millisecond
)

// bugWorkload hand-builds a workload that makes the DropCancelPurge defect
// deterministic to trigger. With one worker, MaxTasksToSubmit=1 and the
// default worker queue depth (= MaxTasksToSubmit), the manager only
// dispatches when zero tasks are outstanding — so exactly one task exists at
// a time. The slow kernel keeps that first task running for bugKernelDelay,
// which means every later victim still has zero rows in flight when its
// cancellation lands at bugCancelAfter. With the defect enabled,
// CancelRequest leaks each of those idle subgraphs instead of retiring
// them, and the scheduler can never drain clean. Any subset with at least
// two victims fails; a single victim is in flight when cancelled and takes
// the healthy TaskCompleted purge path, so the minimal failing workload is
// two requests.
func bugWorkload() *Workload {
	w := &Workload{Seed: 0, Cfg: GenConfig{}.withDefaults()}
	for i := 0; i < 8; i++ {
		w.Reqs = append(w.Reqs, &Request{
			Index:       i,
			Shape:       sim.Shape{Kind: sim.KindChain, Len: 2},
			InputSeed:   uint64(900 + i),
			CancelAfter: bugCancelAfter,
		})
	}
	return w
}

// bugOpts pins the schedule: one worker, batch size one, one outstanding
// task, and the slow kernel.
func bugOpts(chaos core.Chaos) LiveOpts {
	return LiveOpts{
		Workers:          1,
		MaxBatch:         1,
		MaxTasksToSubmit: 1,
		Faults:           slowKernel{d: bugKernelDelay},
		Chaos:            chaos,
	}
}

// TestInjectedSchedulerBugCaught is the harness's own acceptance test: a
// deliberately broken scheduler (CancelRequest leaks idle subgraphs) must
// be detected by the invariant checker, shrunk to a smaller failing
// workload, and round-tripped through a repro file that still fails.
func TestInjectedSchedulerBugCaught(t *testing.T) {
	m := NewModel(modelSeed)
	w := bugWorkload()
	oracle, err := Oracle(m, w)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}

	run := func(wl *Workload, chaos core.Chaos) []Violation {
		or, err := Oracle(m, wl)
		if err != nil {
			t.Fatalf("oracle: %v", err)
		}
		res, err := RunLive(m, wl, bugOpts(chaos))
		if err != nil {
			t.Fatalf("live run: %v", err)
		}
		return Check(m, wl, res, or)
	}

	// Control: the same workload on the healthy scheduler conforms.
	if vs := run(w, core.Chaos{}); len(vs) > 0 {
		t.Fatalf("healthy scheduler violated invariants:\n%s", FormatViolations(vs))
	}

	// The defect must be caught.
	res, err := RunLive(m, w, bugOpts(core.Chaos{DropCancelPurge: true}))
	if err != nil {
		t.Fatalf("live run: %v", err)
	}
	vs := Check(m, w, res, oracle)
	if len(vs) == 0 {
		t.Fatal("invariant checker missed the injected DropCancelPurge defect")
	}
	found := false
	for _, v := range vs {
		if v.Kind == "unclean-drain" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected an unclean-drain violation, got:\n%s", FormatViolations(vs))
	}

	// Shrink while keeping the defect enabled. The failure needs one victim
	// in flight plus one idle victim, so the minimum is two requests.
	chaos := core.Chaos{DropCancelPurge: true}
	small := Shrink(w, func(c *Workload) bool { return len(run(c, chaos)) > 0 })
	if len(small.Reqs) >= len(w.Reqs) {
		t.Fatalf("shrink made no progress: %d of %d requests", len(small.Reqs), len(w.Reqs))
	}
	if got := run(small, chaos); len(got) == 0 {
		t.Fatal("shrunk workload no longer fails")
	}
	t.Logf("shrunk failing workload: %d of %d requests", len(small.Reqs), len(w.Reqs))

	// Repro round-trip: write, reload, and confirm the reloaded workload
	// still triggers the defect.
	path := filepath.Join(t.TempDir(), "bug-repro.json")
	if err := WriteRepro(path, m, small, vs); err != nil {
		t.Fatalf("write repro: %v", err)
	}
	m2, w2, err := LoadRepro(path)
	if err != nil {
		t.Fatalf("load repro: %v", err)
	}
	if m2.Seed != m.Seed || len(w2.Reqs) != len(small.Reqs) {
		t.Fatalf("repro round-trip mismatch: model seed %d/%d, requests %d/%d",
			m2.Seed, m.Seed, len(w2.Reqs), len(small.Reqs))
	}
	or2, err := Oracle(m2, w2)
	if err != nil {
		t.Fatalf("oracle on reloaded repro: %v", err)
	}
	res2, err := RunLive(m2, w2, bugOpts(chaos))
	if err != nil {
		t.Fatalf("live run on reloaded repro: %v", err)
	}
	if got := Check(m2, w2, res2, or2); len(got) == 0 {
		t.Fatal("reloaded repro no longer fails")
	}
}
