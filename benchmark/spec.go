package main

import (
	"time"

	"batchmaker/internal/cellgraph"
	"batchmaker/internal/policy"
	"batchmaker/internal/rnn"
	"batchmaker/internal/server"
	"batchmaker/internal/tensor"
)

// rounds is how many segments give one value of a workload: its end-to-end
// value is the median over them. It is a constant, not an option: the noise
// record and the bounds in BENCHMARK.json were measured with it. A run that
// has to be shorter shortens the window, never the number of segments.
const rounds = 8

// segmentWindow is the measured window of one segment, each in a fresh
// process: BENCHMARK.json's run_seconds (20) over the rounds.
const segmentWindow = 2500 * time.Millisecond

// workload is one traffic mix. Rates, limits and warm-up counts are frozen
// constants: they were sized once for a 2-core box so that the three steady
// workloads sit at 30–40 % utilisation (rate × cpu_ms_per_req / nproc), and a
// later change is judged against them, so they must not move with the code.
type workload struct {
	name string
	// Model shape. tree selects TreeLSTM leaf/internal cells, otherwise the
	// model is the Seq2Seq encoder/decoder pair cmd/batchmaker serves.
	tree                 bool
	vocab, embed, hidden int
	// wire drives the real batchmaker binary over TCP instead of an
	// in-process server.Server.
	wire bool
	// policy turns the adaptive policy layer on (burst_policy only).
	policy bool
	// obsProbe adds one segment with the observability layer off to the
	// traced pass (obsv.overhead_pct): set on the workload where bookkeeping
	// is the largest share of a cell's cost.
	obsProbe bool

	// rate is the steady arrival rate in requests per second. When burst is
	// non-zero, that many extra requests fall due within burstSpan, burstLead
	// before the window closes.
	rate  float64
	burst int
	// fixedLen, when non-zero, makes every sentence that long (the paper's
	// fixed-length-24 dataset) instead of drawing lengths from the corpus.
	fixedLen int
	// limit is the latency limit a reply must meet to count as goodput.
	limit time.Duration
	// warm is W: the number of closed-loop warm-up requests (concurrency 2)
	// whose last reply ends set-up.
	warm int
}

const (
	burstLead     = time.Second
	burstSpan     = 20 * time.Millisecond
	burstAdmit    = 150 * time.Millisecond
	policySLA     = 150 * time.Millisecond
	burstDeadline = 300 * time.Millisecond
	// seqMaxLen clips Seq2Seq source and target lengths (the paper's Fig. 11
	// "max 50" variant), bounding the longest request.
	seqMaxLen = 50
)

var workloads = []*workload{
	{name: "seq2seq_open", vocab: 1000, embed: 64, hidden: 128,
		rate: 80, limit: 100 * time.Millisecond, warm: 100},
	{name: "tree_tiny", tree: true, obsProbe: true, vocab: 500, embed: 32, hidden: 32,
		rate: 800, limit: 20 * time.Millisecond, warm: 1000},
	{name: "wire_durable", wire: true, vocab: 200, embed: 16, hidden: 32,
		rate: 1200, limit: 10 * time.Millisecond, warm: 2000},
	{name: "burst_policy", policy: true, vocab: 1000, embed: 64, hidden: 128,
		rate: 80, burst: 48, fixedLen: 24, limit: policySLA, warm: 100},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// model is the pair of cell types a workload serves: cell0 runs first
// (encoder, tree leaf), cell1 second (decoder, tree internal).
type model struct {
	cell0, cell1 rnn.IntoStepper
	unfold       func(it *item) (*cellgraph.Graph, error)
	// initMs is the time the cell constructors took (rnn.model_init_ms).
	initMs float64
}

// newModel builds the workload's cells. The Seq2Seq pair is built exactly as
// cmd/batchmaker's newApp builds it (tensor.NewRNG(2018), encoder then
// decoder), so that for wire_durable the oracle computed here has the same
// weights as the server in the other process.
func newModel(w *workload) *model {
	begin := time.Now()
	rng := tensor.NewRNG(2018)
	m := &model{}
	if w.tree {
		leaf := rnn.NewTreeLeafCell("leaf", w.vocab, w.embed, w.hidden, rng)
		internal := rnn.NewTreeInternalCell("internal", w.hidden, rng)
		m.cell0, m.cell1 = leaf, internal
		m.unfold = func(it *item) (*cellgraph.Graph, error) {
			return cellgraph.UnfoldTree(leaf, internal, it.tree)
		}
	} else {
		enc := rnn.NewEncoderCell("encoder", w.vocab, w.embed, w.hidden, rng)
		dec := rnn.NewDecoderCell("decoder", w.vocab, w.embed, w.hidden, rng)
		m.cell0, m.cell1 = enc, dec
		m.unfold = func(it *item) (*cellgraph.Graph, error) {
			return cellgraph.UnfoldSeq2Seq(enc, dec, it.src, it.dec)
		}
	}
	m.initMs = ms(time.Since(begin))
	return m
}

// oracle runs the request unbatched, one cell at a time: the reference every
// sampled reply must match.
func (m *model) oracle(it *item) (map[string]*tensor.Tensor, error) {
	g, err := m.unfold(it)
	if err != nil {
		return nil, err
	}
	return cellgraph.ExecuteSequential(g)
}

// cellSpecs registers the model as cmd/batchmaker does: first-phase cells
// MaxBatch 64 priority 0; second-phase cells priority 1 (decoder MaxBatch 32,
// tree internal 64).
func (m *model) cellSpecs(w *workload) []server.CellSpec {
	second := 32
	if w.tree {
		second = 64
	}
	return []server.CellSpec{
		{Cell: m.cell0, MaxBatch: 64, Priority: 0},
		{Cell: m.cell1, MaxBatch: second, Priority: 1},
	}
}

func (m *model) serverConfig(w *workload, obsOff bool) server.Config {
	cfg := server.Config{Workers: 2, Cells: m.cellSpecs(w)}
	cfg.Obs.Disabled = obsOff
	if w.policy {
		cfg.Policy = policy.Config{Mode: policy.ModeFull, SLA: policySLA}
	}
	return cfg
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics a user of the system sees; BENCHMARK.json
// carries their direction and bound.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"lat_p50_ms", "ms"},
	{"goodput_rps", "1/s"},
	{"cpu_ms_per_req", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the single-layer metrics of the traced pass, layer name
// first. Every workload reports every one; a layer the workload bypasses
// reports 0.
var perLayer = []metricDef{
	{"loadgen.sent", "count"}, {"loadgen.ok", "count"}, {"loadgen.refused", "count"},
	{"loadgen.failed", "count"}, {"loadgen.late_p99_ms", "ms"}, {"loadgen.late_max_ms", "ms"},
	{"loadgen.lat_p90_ms", "ms"}, {"loadgen.lat_p99_ms", "ms"}, {"loadgen.yardstick_ms", "ms"},
	{"loadgen.trace_overhead_pct", "%"},

	{"dataset.cells_per_req", "count"}, {"dataset.sample_us_per_req", "us"},

	{"cellgraph.unfold_us_per_req", "us"}, {"cellgraph.nodes_per_req", "count"},
	{"cellgraph.subgraphs_per_req", "count"}, {"cellgraph.critical_path_cells", "count"},
	{"cellgraph.seqexec_ms_per_req", "ms"},

	{"tensor.matmul_us_b1", "us"}, {"tensor.matmul_us_b16", "us"},
	{"tensor.matmul_gflops_b16", "GFLOP/s"}, {"tensor.matmul_bytes_b16", "B"},
	{"tensor.gather_scatter_us_b16", "us"},

	{"rnn.cell0_step_us_b1", "us"}, {"rnn.cell0_step_us_b16", "us"},
	{"rnn.cell1_step_us_b1", "us"}, {"rnn.cell1_step_us_b16", "us"},
	{"rnn.batch_gain_b16", "x"}, {"rnn.model_init_ms", "ms"},

	{"core.add_subgraph_us", "us"}, {"core.schedule_us_per_task", "us"},
	{"core.task_completed_us", "us"}, {"core.tasks_per_req", "count"},
	{"core.cells_per_task", "count"},

	{"server.admit_us_p50", "us"}, {"server.tasks_per_req", "count"},
	{"server.cells_per_task", "count"}, {"server.ns_per_cell", "ns"},
	{"server.dispatch_p50_us", "us"}, {"server.queuing_p50_ms", "ms"},
	{"server.computation_p50_ms", "ms"}, {"server.allocs_per_req", "count"},
	{"server.overhead_us_per_cell", "us"}, {"server.self_ms_per_req", "ms"},

	{"policy.shed_share", "%"}, {"policy.expired_share", "%"}, {"policy.gate_flips", "count"},
	{"policy.max_batch_final", "count"}, {"policy.admit_ns", "ns"}, {"policy.completed_ns", "ns"},

	{"journal.append_us", "us"}, {"journal.durable_ack_ms_p50", "ms"},
	{"journal.bytes_per_req", "B"}, {"journal.fsyncs_per_s", "1/s"},
	{"journal.records_per_commit", "count"},

	{"wire.rtt_p50_us", "us"}, {"wire.conn_wait_p50_us", "us"}, {"wire.overhead_us", "us"},
	{"wire.bytes_per_req", "B"}, {"wire.ready_ms", "ms"},

	{"obsv.records_per_req", "count"}, {"obsv.records_dropped", "count"},
	{"obsv.overhead_pct", "%"},
}
