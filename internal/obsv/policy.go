package obsv

// Policy metric family names. The SLA feasibility rule (internal/policy)
// publishes these through the unified registry; they only appear in the
// exposition when a policy controller is actually wired, so policy-off
// deployments keep the golden exposition unchanged.
const (
	MetricPolicySheds     = "batchmaker_policy_shed_total"
	MetricPolicyGateFlips = "batchmaker_policy_gate_flips_total"
	MetricPolicyShedding  = "batchmaker_policy_shedding"
	MetricPolicyEstWait   = "batchmaker_policy_est_wait_seconds"
	MetricPolicyMaxBatch  = "batchmaker_policy_max_batch"
)

// PolicyMetrics groups the policy handles. Built against a nil
// registry it is fully inert, so the controller never branches on whether
// metrics are wired.
type PolicyMetrics struct {
	// Sheds counts requests rejected by the SLA feasibility rule.
	Sheds *Counter
	// GateFlips counts admit↔shed changes between consecutive decisions.
	GateFlips *Counter
	// Shedding is 1 while the last decision was a shed, else 0.
	Shedding *Gauge
	// EstWait is the priced queue wait at the last decision.
	EstWait *FloatGauge
	// maxBatch holds the per-cell-type MaxBatch gauges, created lazily as
	// types first report.
	reg      *Registry
	maxBatch map[string]*Gauge
}

// NewPolicyMetrics registers the policy families in reg (which may be nil,
// yielding an inert instance).
func NewPolicyMetrics(reg *Registry) *PolicyMetrics {
	return &PolicyMetrics{
		Sheds: reg.Counter(MetricPolicySheds,
			"Requests rejected by the SLA feasibility rule."),
		GateFlips: reg.Counter(MetricPolicyGateFlips,
			"Admit<->shed changes between consecutive policy decisions."),
		Shedding: reg.Gauge(MetricPolicyShedding,
			"1 while the last policy decision was a shed, else 0."),
		EstWait: reg.FloatGauge(MetricPolicyEstWait,
			"Priced queue wait (backlog per worker x price per cell) at the last admission decision."),
		reg:      reg,
		maxBatch: make(map[string]*Gauge),
	}
}

// MaxBatch returns the MaxBatch gauge for a cell type, registering
// it on first use. Safe on an inert instance (returns a nil, no-op gauge).
// The policy controller is single-goroutine, so the lazy map needs no lock.
func (m *PolicyMetrics) MaxBatch(typeKey string) *Gauge {
	if m == nil || m.reg == nil {
		return nil
	}
	if g, ok := m.maxBatch[typeKey]; ok {
		return g
	}
	g := m.reg.GaugeVec(MetricPolicyMaxBatch,
		"Static MaxBatch per cell type.",
		[]string{"cell_type"}, []string{typeKey})
	m.maxBatch[typeKey] = g
	return g
}
