// Package bench is the experiment harness: one driver per table/figure of
// the paper's evaluation (§7). Each driver runs the relevant simulations and
// prints the same rows/series the paper reports, so `cmd/repro -exp fig7a`
// (or the corresponding testing.B benchmark in bench_test.go) regenerates
// the figure's data. EXPERIMENTS.md records paper-reported vs measured
// values.
package bench

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"time"

	"batchmaker/internal/cellgraph"
	"batchmaker/internal/dataset"
	"batchmaker/internal/device"
	"batchmaker/internal/sim"
)

// Options controls experiment scale.
type Options struct {
	// Out receives the report text.
	Out io.Writer
	// Duration is the measured virtual window per load point.
	Duration time.Duration
	// Warmup is the discarded lead-in.
	Warmup time.Duration
	// Quick trims load-point sweeps for use under `go test -bench`.
	Quick bool
	// Seed offsets all workload seeds (defaults applied when zero).
	Seed uint64
}

func (o Options) withDefaults() Options {
	if o.Out == nil {
		o.Out = io.Discard
	}
	if o.Duration == 0 {
		if o.Quick {
			o.Duration = 250 * time.Millisecond
		} else {
			o.Duration = 1 * time.Second
		}
	}
	if o.Warmup == 0 {
		o.Warmup = o.Duration / 2
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

func (o Options) run(rate float64, seedOffset uint64) sim.RunConfig {
	return sim.RunConfig{
		RatePerSec: rate,
		Duration:   o.Duration,
		Warmup:     o.Warmup,
		Seed:       o.Seed + seedOffset,
	}
}

// runScaled stretches the measured window by k. The graph-batching
// baselines rotate through buckets (or accumulate merge batches) with
// periods approaching the default window, which makes their
// completions-per-window throughput estimate noisy; their simulations are
// cheap, so they get k× longer windows. BatchMaker points keep o.run.
func (o Options) runScaled(rate float64, seedOffset uint64, k int) sim.RunConfig {
	rc := o.run(rate, seedOffset)
	rc.Duration *= time.Duration(k)
	rc.Warmup *= 2
	return rc
}

// Point is one (throughput, latency) sample of a latency-throughput curve.
type Point struct {
	System     string
	OfferedQPS float64
	Throughput float64
	P50, P90   time.Duration
	P99        time.Duration
	QueueP99   time.Duration
}

func pointOf(r *sim.RunResult) Point {
	return Point{
		System:     r.System,
		OfferedQPS: r.OfferedQPS,
		Throughput: r.Throughput(),
		P50:        r.Latency.P50(),
		P90:        r.Latency.P90(),
		P99:        r.Latency.P99(),
		QueueP99:   r.Queuing.P99(),
	}
}

// Report is a regenerated figure: header lines plus the data series.
type Report struct {
	Name   string
	Title  string
	Lines  []string
	Points []Point
}

func (r *Report) printf(format string, args ...interface{}) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

func (r *Report) addResult(res *sim.RunResult) Point {
	p := pointOf(res)
	r.Points = append(r.Points, p)
	r.printf("%s", row(res))
	return p
}

// row formats a run as the harness's standard table row.
func row(r *sim.RunResult) string {
	return fmt.Sprintf("%-22s offered=%8.0f req/s  tput=%8.0f req/s  p50=%8.2fms  p90=%8.2fms  p99=%8.2fms",
		r.System, r.OfferedQPS, r.Throughput(),
		ms(r.Latency.P50()), ms(r.Latency.P90()), ms(r.Latency.P99()))
}

// ms converts a duration to float milliseconds for printing.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// WriteTo renders the report.
func (r *Report) WriteTo(w io.Writer) (int64, error) {
	var n int64
	k, err := fmt.Fprintf(w, "=== %s: %s ===\n", r.Name, r.Title)
	n += int64(k)
	if err != nil {
		return n, err
	}
	for _, line := range r.Lines {
		k, err = fmt.Fprintln(w, line)
		n += int64(k)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// WriteCSV writes the report's data points as CSV (one row per load point)
// for external plotting.
func (r *Report) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"system", "offered_qps", "throughput_qps", "p50_ms", "p90_ms", "p99_ms", "queue_p99_ms"}); err != nil {
		return err
	}
	for _, p := range r.Points {
		rec := []string{
			p.System,
			fmt.Sprintf("%.0f", p.OfferedQPS),
			fmt.Sprintf("%.1f", p.Throughput),
			fmt.Sprintf("%.3f", ms(p.P50)),
			fmt.Sprintf("%.3f", ms(p.P90)),
			fmt.Sprintf("%.3f", ms(p.P99)),
			fmt.Sprintf("%.3f", ms(p.QueueP99)),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// PeakThroughput returns the best achieved throughput for a system's series.
func (r *Report) PeakThroughput(system string) float64 {
	best := 0.0
	for _, p := range r.Points {
		if p.System == system && p.Throughput > best {
			best = p.Throughput
		}
	}
	return best
}

// LatencyAt returns a system's p90 latency at the load point closest to
// (and not above twice) the requested offered rate.
func (r *Report) LatencyAt(system string, offered float64) (time.Duration, bool) {
	bestDiff := -1.0
	var out time.Duration
	found := false
	for _, p := range r.Points {
		if p.System != system {
			continue
		}
		d := p.OfferedQPS - offered
		if d < 0 {
			d = -d
		}
		if bestDiff < 0 || d < bestDiff {
			bestDiff, out, found = d, p.P90, true
		}
	}
	return out, found
}

// rates returns a load sweep from lo to hi.
func (o Options) rates(lo, hi float64) []float64 {
	if o.Quick {
		return []float64{lo, (lo + hi) / 2, hi}
	}
	var out []float64
	step := (hi - lo) / 7
	for r := lo; r <= hi+1; r += step {
		out = append(out, r)
	}
	return out
}

// Experiments lists every experiment id this harness can regenerate.
func Experiments() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Run regenerates one experiment by id ("fig3", "fig7a", ..., "summary")
// and writes its report to opts.Out.
func Run(name string, opts Options) (*Report, error) {
	opts = opts.withDefaults()
	fn, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("bench: unknown experiment %q (have %v)", name, Experiments())
	}
	rep, err := fn(opts)
	if err != nil {
		return nil, err
	}
	if _, err := rep.WriteTo(opts.Out); err != nil {
		return nil, err
	}
	return rep, nil
}

var registry = map[string]func(Options) (*Report, error){
	"fig3":    Fig3,
	"fig5":    Fig5,
	"fig7a":   Fig7a,
	"fig7b":   Fig7b,
	"fig8":    Fig8,
	"fig9":    Fig9,
	"fig10":   Fig10,
	"fig11":   Fig11,
	"fig13a":  Fig13a,
	"fig13b":  Fig13b,
	"fig14":   Fig14,
	"fig15":   Fig15,
	"summary": Summary,
}

// lstmBucketing builds the bucketing baseline config for chain workloads.
func lstmBucketing(system string, model *sim.Model, gpus, width, bmax int) sim.BucketingConfig {
	stepOv, batchOv := sim.DefaultBucketingOverheads(system)
	return sim.BucketingConfig{
		SystemName: system, Model: model, Kind: sim.KindChain,
		NumGPUs: gpus, BucketWidth: width, MaxBatch: bmax,
		StepOverhead: stepOv, BatchOverhead: batchOv,
	}
}

func seq2seqBucketing(system string, model *sim.Model, gpus, width, bmax int) sim.BucketingConfig {
	cfg := lstmBucketing(system, model, gpus, width, bmax)
	cfg.Kind = sim.KindSeq2Seq
	return cfg
}

func bmConfig(model *sim.Model, gpus int) sim.BatchMakerConfig {
	return sim.BatchMakerConfig{
		Model:            model,
		NumGPUs:          gpus,
		Overheads:        device.DefaultOverheads(),
		MaxTasksToSubmit: 5,
	}
}

// Fig3 regenerates the microbenchmark: LSTM-step latency vs throughput on
// the CPU and GPU cost models at batch sizes 2..4096.
func Fig3(o Options) (*Report, error) {
	rep := &Report{Name: "fig3", Title: "LSTM cell step latency vs throughput (micro)"}
	rep.printf("GPU (V100-calibrated curve):")
	for _, p := range device.Microbench(device.LSTMGPUCurve(), 4096) {
		rep.printf("  b=%-5d time=%8.1fµs  tput=%10.0f cells/s", p.Batch, float64(p.Time)/1e3, p.Throughput)
	}
	rep.printf("CPU (Xeon+MKL-calibrated curve):")
	for _, p := range device.Microbench(device.LSTMCPUCurve(), 4096) {
		rep.printf("  b=%-5d time=%8.1fµs  tput=%10.0f cells/s", p.Batch, float64(p.Time)/1e3, p.Throughput)
	}
	rep.printf("best GPU batch (throughput-optimal): %d", device.LSTMGPUCurve().BestBatch(4096))
	return rep, nil
}

// Fig5 regenerates the batching-timeline comparison for the 8-request
// example workload.
func Fig5(o Options) (*Report, error) {
	rep := &Report{Name: "fig5", Title: "graph vs cellular batching timeline (8 requests, batch 4)"}
	reqs := sim.Figure5Requests()
	g := sim.GraphBatchingTimeline(reqs, 4)
	c := sim.CellularBatchingTimeline(reqs, 4)
	rep.printf("%s", sim.FormatTimeline("graph batching", g))
	rep.printf("%s", sim.FormatTimeline("cellular batching", c))
	rep.printf("graph:    span=%d mean latency=%.2f", sim.TotalSpan(g), sim.MeanLatency(g))
	rep.printf("cellular: span=%d mean latency=%.2f", sim.TotalSpan(c), sim.MeanLatency(c))
	return rep, nil
}

// fig7 sweeps LSTM load for one bmax (Figures 7a and 7b).
func fig7(o Options, name string, bmax int) (*Report, error) {
	rep := &Report{Name: name, Title: fmt.Sprintf("LSTM on WMT lengths, 1 GPU, bmax=%d", bmax)}
	model := sim.NewLSTMModel(bmax, 1)
	for _, rate := range o.rates(2_000, 24_000) {
		wl := &sim.LSTMWorkload{Lengths: dataset.NewWMTLengths(o.Seed + 100)}
		res, err := sim.RunBatchMaker(bmConfig(model, 1), wl, o.run(rate, 0))
		if err != nil {
			return nil, err
		}
		rep.addResult(res)
		for _, system := range []string{"TensorFlow", "MXNet"} {
			wl := &sim.LSTMWorkload{Lengths: dataset.NewWMTLengths(o.Seed + 100)}
			res, err := sim.RunBucketing(lstmBucketing(system, model, 1, 10, bmax), wl, o.runScaled(rate, 0, 5))
			if err != nil {
				return nil, err
			}
			rep.addResult(res)
		}
	}
	return rep, nil
}

// Fig7a is the LSTM sweep at bmax=512.
func Fig7a(o Options) (*Report, error) { return fig7(o, "fig7a", 512) }

// Fig7b is the LSTM sweep at bmax=64.
func Fig7b(o Options) (*Report, error) { return fig7(o, "fig7b", 64) }

// Fig8 sweeps the bucket width for the MXNet baseline.
func Fig8(o Options) (*Report, error) {
	rep := &Report{Name: "fig8", Title: "MXNet bucket-width trade-off (bmax=512)"}
	model := sim.NewLSTMModel(512, 1)
	for _, width := range []int{1, 5, 10, 20, 40} {
		for _, rate := range o.rates(2_000, 22_000) {
			wl := &sim.LSTMWorkload{Lengths: dataset.NewWMTLengths(o.Seed + 100)}
			cfg := lstmBucketing("MXNet", model, 1, width, 512)
			cfg.SystemName = fmt.Sprintf("MXNet-bw%d", width)
			res, err := sim.RunBucketing(cfg, wl, o.runScaled(rate, 0, 5))
			if err != nil {
				return nil, err
			}
			rep.addResult(res)
		}
	}
	return rep, nil
}

// Fig9 reports the queuing/computation CDFs at ~5k req/s.
func Fig9(o Options) (*Report, error) {
	rep := &Report{Name: "fig9", Title: "queuing and computation time breakdown at 5k req/s"}
	model := sim.NewLSTMModel(512, 1)
	rate := 5_000.0
	type row struct {
		name string
		res  *sim.RunResult
	}
	var rows []row
	wl := &sim.LSTMWorkload{Lengths: dataset.NewWMTLengths(o.Seed + 100)}
	bm, err := sim.RunBatchMaker(bmConfig(model, 1), wl, o.run(rate, 0))
	if err != nil {
		return nil, err
	}
	rows = append(rows, row{"BatchMaker", bm})
	for _, system := range []string{"TensorFlow", "MXNet"} {
		wl := &sim.LSTMWorkload{Lengths: dataset.NewWMTLengths(o.Seed + 100)}
		res, err := sim.RunBucketing(lstmBucketing(system, model, 1, 10, 512), wl, o.runScaled(rate, 0, 5))
		if err != nil {
			return nil, err
		}
		rows = append(rows, row{system, res})
	}
	for _, r := range rows {
		rep.addResult(r.res)
		rep.printf("  %-12s queuing:     p50=%8.3fms p99=%8.3fms", r.name,
			ms(r.res.Queuing.P50()), ms(r.res.Queuing.P99()))
		rep.printf("  %-12s computation: p50=%8.3fms p99=%8.3fms", r.name,
			ms(r.res.Computation.P50()), ms(r.res.Computation.P99()))
		for _, pt := range r.res.Queuing.CDF(8) {
			rep.printf("    queue-cdf %-12s %8.3fms %5.2f", r.name, ms(pt.Value), pt.Fraction)
		}
	}
	return rep, nil
}

// Fig10 reports the synthetic WMT length distribution.
func Fig10(o Options) (*Report, error) {
	rep := &Report{Name: "fig10", Title: "sequence length CDF of the synthetic WMT dataset"}
	s := dataset.Summarize(dataset.NewWMTLengths(o.Seed), 100_000)
	rep.printf("mean=%.1f p50=%d p90=%d p99=%d max=%d fracUnder100=%.4f",
		s.Mean, s.P50, s.P90, s.P99, s.Max, s.FracUnder100)
	rep.printf("paper anchors: mean=24 max=330 ~99%% under 100")
	return rep, nil
}

// Fig11 sweeps sequence-length variance: fixed 24, clipped at 50, clipped
// at 100.
func Fig11(o Options) (*Report, error) {
	rep := &Report{Name: "fig11", Title: "impact of sequence-length variance (1 GPU, bmax=512)"}
	model := sim.NewLSTMModel(512, 1)
	variants := []struct {
		label string
		mk    func() dataset.LengthSampler
		hi    float64
	}{
		{"fixed24", func() dataset.LengthSampler { return dataset.FixedLengths{N: 24} }, 28_000},
		{"max50", func() dataset.LengthSampler {
			return &dataset.ClippedLengths{Inner: dataset.NewWMTLengths(o.Seed + 100), Max: 50}
		}, 26_000},
		{"max100", func() dataset.LengthSampler {
			return &dataset.ClippedLengths{Inner: dataset.NewWMTLengths(o.Seed + 100), Max: 100}
		}, 24_000},
	}
	for _, v := range variants {
		rep.printf("--- dataset %s ---", v.label)
		for _, rate := range o.rates(4_000, v.hi) {
			res, err := sim.RunBatchMaker(bmConfig(model, 1), &sim.LSTMWorkload{Lengths: v.mk()}, o.run(rate, 0))
			if err != nil {
				return nil, err
			}
			res.System = "BatchMaker-" + v.label
			rep.addResult(res)
			for _, system := range []string{"TensorFlow", "MXNet"} {
				res, err := sim.RunBucketing(lstmBucketing(system, model, 1, 10, 512),
					&sim.LSTMWorkload{Lengths: v.mk()}, o.runScaled(rate, 0, 5))
				if err != nil {
					return nil, err
				}
				res.System = system + "-" + v.label
				rep.addResult(res)
			}
		}
	}
	return rep, nil
}

// fig13 sweeps Seq2Seq load on a GPU count (Figures 13a and 13b).
func fig13(o Options, name string, gpus int) (*Report, error) {
	rep := &Report{Name: name, Title: fmt.Sprintf("Seq2Seq on WMT pairs, %d GPUs", gpus)}
	hi := 6_500.0 * float64(gpus)
	for _, rate := range o.rates(1_000, hi) {
		// BatchMaker-512,256 and BatchMaker-256,256.
		for _, enc := range []int{512, 256} {
			model := sim.NewSeq2SeqModel(enc, 256, 1)
			wl := &sim.Seq2SeqWorkload{Pairs: dataset.NewPairSampler(o.Seed + 200)}
			res, err := sim.RunBatchMaker(bmConfig(model, gpus), wl, o.run(rate, 0))
			if err != nil {
				return nil, err
			}
			res.System = fmt.Sprintf("BatchMaker-%d,256", enc)
			rep.addResult(res)
		}
		model := sim.NewSeq2SeqModel(256, 256, 1)
		for _, system := range []string{"TensorFlow", "MXNet"} {
			wl := &sim.Seq2SeqWorkload{Pairs: dataset.NewPairSampler(o.Seed + 200)}
			res, err := sim.RunBucketing(seq2seqBucketing(system, model, gpus, 10, 256), wl, o.runScaled(rate, 0, 5))
			if err != nil {
				return nil, err
			}
			rep.addResult(res)
		}
	}
	return rep, nil
}

// Fig13a is Seq2Seq on 2 GPUs.
func Fig13a(o Options) (*Report, error) { return fig13(o, "fig13a", 2) }

// Fig13b is Seq2Seq on 4 GPUs.
func Fig13b(o Options) (*Report, error) { return fig13(o, "fig13b", 4) }

// Fig14 sweeps TreeLSTM load on the TreeBank-like dataset.
func Fig14(o Options) (*Report, error) {
	rep := &Report{Name: "fig14", Title: "TreeLSTM on TreeBank-like trees, 1 GPU, batch 64"}
	model := sim.NewTreeModel(64, 1)
	for _, rate := range o.rates(400, 8_000) {
		wl := &sim.TreeWorkload{Trees: dataset.NewTreeSampler(o.Seed+300, 30_000)}
		res, err := sim.RunBatchMaker(bmConfig(model, 1), wl, o.run(rate, 0))
		if err != nil {
			return nil, err
		}
		rep.addResult(res)
		wl = &sim.TreeWorkload{Trees: dataset.NewTreeSampler(o.Seed+300, 30_000)}
		res, err = sim.RunGraphMerge(sim.DefaultDyNetConfig(model, 1), wl, o.runScaled(rate, 0, 5))
		if err != nil {
			return nil, err
		}
		rep.addResult(res)
		wl = &sim.TreeWorkload{Trees: dataset.NewTreeSampler(o.Seed+300, 30_000)}
		res, err = sim.RunGraphMerge(sim.DefaultFoldConfig(model, 1), wl, o.runScaled(rate, 0, 5))
		if err != nil {
			return nil, err
		}
		rep.addResult(res)
	}
	return rep, nil
}

// Fig15 runs the identical-tree synthetic dataset including the Ideal
// hardcoded-graph baseline.
func Fig15(o Options) (*Report, error) {
	rep := &Report{Name: "fig15", Title: "TreeLSTM on identical 16-leaf trees (with Ideal baseline)"}
	model := sim.NewTreeModel(64, 1)
	tree, err := cellgraph.CompleteBinaryTree(16, 30_000)
	if err != nil {
		return nil, err
	}
	shape := sim.Shape{Kind: sim.KindTree, Tree: tree}
	for _, rate := range o.rates(500, 14_000) {
		res, err := sim.RunIdealFixedTree(model, 1, tree, 64, 10*time.Microsecond,
			&sim.FixedWorkload{Shape: shape}, o.runScaled(rate, 0, 5))
		if err != nil {
			return nil, err
		}
		rep.addResult(res)
		res, err = sim.RunBatchMaker(bmConfig(model, 1), &sim.FixedWorkload{Shape: shape}, o.run(rate, 0))
		if err != nil {
			return nil, err
		}
		rep.addResult(res)
		res, err = sim.RunGraphMerge(sim.DefaultDyNetConfig(model, 1), &sim.FixedWorkload{Shape: shape}, o.runScaled(rate, 0, 5))
		if err != nil {
			return nil, err
		}
		rep.addResult(res)
		res, err = sim.RunGraphMerge(sim.DefaultFoldConfig(model, 1), &sim.FixedWorkload{Shape: shape}, o.runScaled(rate, 0, 5))
		if err != nil {
			return nil, err
		}
		rep.addResult(res)
	}
	return rep, nil
}

// Summary reproduces the paper's headline comparisons (§7 highlights).
func Summary(o Options) (*Report, error) {
	rep := &Report{Name: "summary", Title: "headline comparisons (§7 highlights)"}

	f7, err := Fig7a(o)
	if err != nil {
		return nil, err
	}
	bmPeak := f7.PeakThroughput("BatchMaker-lstm")
	mxPeak := f7.PeakThroughput("MXNet")
	tfPeak := f7.PeakThroughput("TensorFlow")
	rep.printf("LSTM peak throughput: BatchMaker=%.0f MXNet=%.0f TensorFlow=%.0f (+%.0f%% over best baseline; paper: +25%%)",
		bmPeak, mxPeak, tfPeak, 100*(bmPeak/maxf(mxPeak, tfPeak)-1))
	bmLat, _ := f7.LatencyAt("BatchMaker-lstm", 5_000)
	mxLat, _ := f7.LatencyAt("MXNet", 5_000)
	rep.printf("LSTM p90 latency at 5k req/s: BatchMaker=%.1fms MXNet=%.1fms (-%.0f%%; paper: -37.5%% to -90.5%%)",
		ms(bmLat), ms(mxLat), 100*(1-float64(bmLat)/float64(mxLat)))

	f14, err := Fig14(o)
	if err != nil {
		return nil, err
	}
	bmT := f14.PeakThroughput("BatchMaker-treelstm")
	dyT := f14.PeakThroughput("DyNet")
	foldT := f14.PeakThroughput("TF Fold")
	rep.printf("TreeLSTM peak throughput: BatchMaker=%.0f DyNet=%.0f Fold=%.0f (%.1fx DyNet, %.1fx Fold; paper: 1.8x, 4x)",
		bmT, dyT, foldT, bmT/dyT, bmT/foldT)
	return rep, nil
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
