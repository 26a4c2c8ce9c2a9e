package sim

import (
	"slices"
	"testing"
	"time"

	"batchmaker/internal/obsv"
	"batchmaker/internal/policy"
)

// policyBurstRun drives one virtual-time BatchMaker run under the scripted
// burst profile (Poisson → 8× spike → quiet) with the policy on, returning
// the rule's shed records from the request-processor ring and the run
// result.
func policyBurstRun(t *testing.T, seed uint64) ([]obsv.Record, *RunResult) {
	t.Helper()
	ctl := policy.New(
		policy.Config{Mode: policy.ModeFull, SLA: 25 * time.Millisecond},
		[]policy.TypeBounds{{Key: TypeLSTM, Max: 64}}, nil)
	o := obsv.NewObserver(nil, 1<<16)
	cfg := defaultBMConfig(NewLSTMModel(64, 1), 1)
	cfg.Policy = ctl
	cfg.Observer = o
	cfg.Deadline = 25 * time.Millisecond
	wl := &FixedWorkload{Shape: Shape{Kind: KindChain, Len: 24}}
	run := RunConfig{
		RatePerSec: 2_000,
		Duration:   450 * time.Millisecond,
		Seed:       seed,
		Phases: []RatePhase{
			{Until: 150 * time.Millisecond, RateScale: 1}, // steady Poisson
			{Until: 300 * time.Millisecond, RateScale: 8}, // overload spike
			{Until: 450 * time.Millisecond, RateScale: 0}, // quiet: drain
		},
	}
	res, err := RunBatchMaker(cfg, wl, run)
	if err != nil {
		t.Fatal(err)
	}
	var sheds []obsv.Record
	for _, r := range o.Rings() {
		if r.Dropped() > 0 {
			t.Fatalf("ring %s dropped %d records", r.Name(), r.Dropped())
		}
		for _, rec := range r.Snapshot(nil) {
			if rec.Kind == obsv.KindPolicyShed {
				sheds = append(sheds, rec)
			}
		}
	}
	return sheds, res
}

// TestPolicyBurstTraceDeterministic is the policy determinism harness: two
// same-seed virtual-time runs of the scripted burst must shed at the same
// virtual instants and end with identical shed/miss counts — the
// conformance idiom applied to the control loop.
func TestPolicyBurstTraceDeterministic(t *testing.T) {
	sheds1, res1 := policyBurstRun(t, 11)
	sheds2, res2 := policyBurstRun(t, 11)
	if !slices.Equal(sheds1, sheds2) {
		t.Fatalf("same-seed runs diverged: %d vs %d shed records", len(sheds1), len(sheds2))
	}
	if res1.PolicySheds != res2.PolicySheds || res1.DeadlineMisses != res2.DeadlineMisses {
		t.Fatalf("counters diverged: sheds %d vs %d, misses %d vs %d",
			res1.PolicySheds, res2.PolicySheds, res1.DeadlineMisses, res2.DeadlineMisses)
	}
	// The spike must actually exercise the rule, and every shed is recorded.
	if res1.PolicySheds == 0 || len(sheds1) != res1.PolicySheds {
		t.Fatalf("spike shed %d requests, %d shed records", res1.PolicySheds, len(sheds1))
	}
	// A different seed must change the decision sequence (the sheds are a
	// function of the arrival stream, not a constant).
	sheds3, _ := policyBurstRun(t, 12)
	if slices.Equal(sheds1, sheds3) {
		t.Fatal("different seeds produced identical shed records")
	}
}

// TestPolicyBurstShedsReduceMisses compares the same burst with and without
// the policy: the policy arm must shed some arrivals and in exchange
// miss fewer deadlines among the requests it serves.
func TestPolicyBurstShedsReduceMisses(t *testing.T) {
	arm := func(on bool) *RunResult {
		cfg := defaultBMConfig(NewLSTMModel(64, 1), 1)
		cfg.Deadline = 25 * time.Millisecond
		if on {
			cfg.Policy = policy.New(
				policy.Config{Mode: policy.ModeFull, SLA: 25 * time.Millisecond},
				[]policy.TypeBounds{{Key: TypeLSTM, Max: 64}}, nil)
		}
		wl := &FixedWorkload{Shape: Shape{Kind: KindChain, Len: 24}}
		run := RunConfig{
			RatePerSec: 2_000,
			Duration:   450 * time.Millisecond,
			Seed:       21,
			Phases: []RatePhase{
				{Until: 150 * time.Millisecond, RateScale: 1},
				{Until: 300 * time.Millisecond, RateScale: 8},
				{Until: 450 * time.Millisecond, RateScale: 0},
			},
		}
		res, err := RunBatchMaker(cfg, wl, run)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	static := arm(false)
	policyOn := arm(true)
	if policyOn.PolicySheds == 0 {
		t.Fatal("policy arm shed nothing under the spike")
	}
	if policyOn.DeadlineMisses >= static.DeadlineMisses {
		t.Fatalf("policy arm missed %d deadlines, static arm %d — shedding should protect admitted requests",
			policyOn.DeadlineMisses, static.DeadlineMisses)
	}
}
