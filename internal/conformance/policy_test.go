package conformance

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"batchmaker/internal/policy"
	"batchmaker/internal/server"
)

// policyScenario is scenario() with the SLA feasibility rule switched on and
// the workload made dense enough that the rule engages: arrivals land an
// order of magnitude faster and the SLA is tight. The seed still selects the
// clean / disrupted / faulty variant via seed%3, so the policy runs compose
// with cancellations, deadlines and fault injection.
func policyScenario(seed uint64) (GenConfig, LiveOpts) {
	cfg, opts := scenario(seed)
	cfg.Requests = 48
	cfg.MeanGap = time.Millisecond
	if opts.Faults == nil {
		// Slow every kernel so the backlog actually builds: without a service
		// bottleneck the live engine drains these tiny graphs faster than
		// requests arrive and the backlog never outlasts the SLA. The
		// faulty variant (seed%3 == 2) keeps its own injector.
		f := server.NewRandomFaults(seed)
		f.PDelay = 1.0
		f.Delay = 2 * time.Millisecond
		opts.Faults = f
	}
	opts.Policy = policy.Config{Mode: policy.ModeFull, SLA: 5 * time.Millisecond}
	return cfg, opts
}

// TestConformancePolicy is the policy-on conformance variant: the full
// invariant set (conservation, exactly-one-terminal, trace bracketing,
// numerics vs the sequential oracle) must hold when admission can shed.
// Requests the rule turns away must terminate as rejected — observable to the
// caller as ErrOverloaded with a retry-after hint — never vanish; the
// rejected counter reconciliation inside Check enforces the never-vanish half.
// Across the seeds at least one request must be shed, so the variant proves
// it reaches that path.
func TestConformancePolicy(t *testing.T) {
	seeds := *seedsFlag
	if testing.Short() && seeds > 3 {
		seeds = 3
	}
	totalShed := 0
	for i := 0; i < seeds; i++ {
		seed := uint64(2000 + i)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			totalShed += runPolicySeed(t, seed)
		})
	}
	t.Logf("policy conformance: %d requests shed across %d seeds", totalShed, seeds)
	if totalShed == 0 {
		t.Fatalf("no request shed across %d policy seeds: the reject path went unexercised", seeds)
	}
}

func runPolicySeed(t *testing.T, seed uint64) int {
	t.Helper()
	cfg, opts := policyScenario(seed)
	m := NewModel(modelSeed)
	w := Generate(seed, cfg)
	oracle, err := Oracle(m, w)
	if err != nil {
		t.Fatalf("sequential oracle: %v", err)
	}
	res, err := RunLive(m, w, opts)
	if err != nil {
		t.Fatalf("live run: %v", err)
	}
	if vs := Check(m, w, res, oracle); len(vs) > 0 {
		t.Fatalf("invariant violations at policy seed %d:\n%s", seed, FormatViolations(vs))
	}

	// Every workload request must have reached a terminal outcome — shed
	// requests included. A request with no outcome vanished.
	if len(res.Outcome) != len(w.Reqs) {
		t.Fatalf("outcome conservation: %d outcomes for %d requests", len(res.Outcome), len(w.Reqs))
	}
	shed := 0
	for idx, out := range res.Outcome {
		if out != OutcomeShed {
			continue
		}
		shed++
		// The only submit-time rejection in this harness is the policy rule
		// (no static admission bound is set), so the caller-visible error must
		// unwrap to ErrOverloaded and carry a positive retry-after hint.
		err := res.Errs[idx]
		if !errors.Is(err, server.ErrOverloaded) {
			t.Fatalf("shed request %d error %v does not unwrap to ErrOverloaded", idx, err)
		}
		var oe *server.OverloadError
		if !errors.As(err, &oe) {
			t.Fatalf("shed request %d error %v is not an *OverloadError", idx, err)
		}
		if oe.RetryAfter <= 0 {
			t.Fatalf("shed request %d missing retry-after hint: %+v", idx, oe)
		}
	}
	return shed
}
