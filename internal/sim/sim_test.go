package sim

import (
	"testing"
	"time"

	"batchmaker/internal/cellgraph"
	"batchmaker/internal/dataset"
	"batchmaker/internal/device"
)

func shortRun(rate float64, seed uint64) RunConfig {
	return RunConfig{
		RatePerSec: rate,
		Duration:   300 * time.Millisecond,
		Warmup:     150 * time.Millisecond,
		Seed:       seed,
	}
}

func defaultBMConfig(model *Model, gpus int) BatchMakerConfig {
	return BatchMakerConfig{
		Model:            model,
		NumGPUs:          gpus,
		Overheads:        device.DefaultOverheads(),
		MaxTasksToSubmit: 5,
	}
}

func TestBatchMakerLowLoadLatency(t *testing.T) {
	// A lone fixed-length-24 request at trivial load executes its 24 steps
	// at small batch sizes: latency ≈ 24 × (Time(1..few) + overhead).
	model := NewLSTMModel(512, 1)
	wl := &FixedWorkload{Shape: Shape{Kind: KindChain, Len: 24}}
	res, err := RunBatchMaker(defaultBMConfig(model, 1), wl, shortRun(50, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency.Count() == 0 {
		t.Fatal("no measured requests")
	}
	perStep := model.KernelTime(TypeLSTM, 1) + device.DefaultOverheads().PerTask(1)
	want := 24 * perStep
	p50 := res.Latency.P50()
	if p50 < want-time.Millisecond || p50 > want+3*time.Millisecond {
		t.Fatalf("p50 latency = %v, want ≈%v", p50, want)
	}
	// At low load queuing is tiny.
	if q := res.Queuing.P99(); q > 3*time.Millisecond {
		t.Fatalf("p99 queuing = %v, want small at low load", q)
	}
}

func TestBatchMakerFixedLengthPeakThroughput(t *testing.T) {
	// §7.3: with fixed-length-24 inputs the theoretical ceiling is
	// 512/(784µs·24) ≈ 27.1k req/s; BatchMaker reaches ~87% of it due to
	// scheduling/gathering overhead.
	model := NewLSTMModel(512, 1)
	wl := &FixedWorkload{Shape: Shape{Kind: KindChain, Len: 24}}
	res, err := RunBatchMaker(defaultBMConfig(model, 1), wl, shortRun(40_000, 2))
	if err != nil {
		t.Fatal(err)
	}
	tput := res.Throughput()
	if tput < 22_000 || tput > 25_500 {
		t.Fatalf("saturation throughput = %v, want ≈23-24k (87%% of 27.1k)", tput)
	}
}

func TestBatchMakerConservationUnderOverload(t *testing.T) {
	// RunBatchMaker errors if any admitted request never completes; push it
	// well past saturation and make sure the drain still happens.
	model := NewLSTMModel(64, 1)
	wl := &LSTMWorkload{Lengths: dataset.NewWMTLengths(3)}
	if _, err := RunBatchMaker(defaultBMConfig(model, 1), wl, shortRun(30_000, 3)); err != nil {
		t.Fatal(err)
	}
}

func TestBatchMakerMultiGPUScales(t *testing.T) {
	model := NewSeq2SeqModel(512, 256, 1)
	mk := func(gpus int) float64 {
		wl := &Seq2SeqWorkload{Pairs: dataset.NewPairSampler(5)}
		res, err := RunBatchMaker(defaultBMConfig(model, gpus), wl, shortRun(30_000, 4))
		if err != nil {
			t.Fatal(err)
		}
		return res.Throughput()
	}
	t1, t2 := mk(1), mk(2)
	if t2 < t1*1.5 {
		t.Fatalf("2 GPUs = %.0f req/s, 1 GPU = %.0f req/s; want ≥1.5x scaling", t2, t1)
	}
}

func TestBatchMakerSeq2SeqDecoderPriority(t *testing.T) {
	// Smoke: the two-type model runs and produces sane latencies.
	model := NewSeq2SeqModel(512, 256, 1)
	wl := &Seq2SeqWorkload{Pairs: dataset.NewPairSampler(6)}
	res, err := RunBatchMaker(defaultBMConfig(model, 1), wl, shortRun(500, 6))
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency.Count() == 0 || res.Latency.P50() <= 0 {
		t.Fatal("no measurements")
	}
}

func TestBatchMakerTreeWorkload(t *testing.T) {
	model := NewTreeModel(64, 1)
	wl := &TreeWorkload{Trees: dataset.NewTreeSampler(7, 100)}
	res, err := RunBatchMaker(defaultBMConfig(model, 1), wl, shortRun(500, 7))
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency.Count() == 0 {
		t.Fatal("no measurements")
	}
}

func TestBatchMakerRejectsBadConfig(t *testing.T) {
	model := NewLSTMModel(512, 1)
	wl := &FixedWorkload{Shape: Shape{Kind: KindChain, Len: 4}}
	if _, err := RunBatchMaker(BatchMakerConfig{Model: model, NumGPUs: 0}, wl, shortRun(10, 1)); err == nil {
		t.Fatal("want NumGPUs error")
	}
	if _, err := RunBatchMaker(BatchMakerConfig{NumGPUs: 1}, wl, shortRun(10, 1)); err == nil {
		t.Fatal("want nil-model error")
	}
	// Every device needs a worker stream bound to it.
	if _, err := RunBatchMaker(BatchMakerConfig{Model: model, NumGPUs: 1, Cluster: device.NewCluster(2)}, wl, shortRun(10, 1)); err == nil {
		t.Fatal("want cluster-size error")
	}
}

func TestBucketingLowLoadComputationTime(t *testing.T) {
	// At trivial load a batch holds one length-21 request, so the padded
	// length is its own length: computation ≈ 21 steps. (Under load, when
	// a batch contains a bucket-bound-length request, the whole batch pads
	// to 30 — §7.3's "almost 50% padding overhead" example; see
	// TestBucketingPadsToLongestInBatch.)
	model := NewLSTMModel(512, 1)
	stepOv, batchOv := DefaultBucketingOverheads("MXNet")
	cfg := BucketingConfig{
		SystemName: "MXNet", Model: model, Kind: KindChain,
		NumGPUs: 1, BucketWidth: 10, MaxBatch: 512,
		StepOverhead: stepOv, BatchOverhead: batchOv,
	}
	wl := &FixedWorkload{Shape: Shape{Kind: KindChain, Len: 21}}
	res, err := RunBucketing(cfg, wl, shortRun(50, 8))
	if err != nil {
		t.Fatal(err)
	}
	comp := res.Computation.P50()
	// A lone request executes at batch 1: 21 steps at Time(1).
	step := model.KernelTime(TypeLSTM, 1) + stepOv
	want := batchOv + 21*step
	if comp < want-time.Millisecond || comp > want+2*time.Millisecond {
		t.Fatalf("computation p50 = %v, want ≈%v (21 unpadded steps)", comp, want)
	}
}

func TestBucketingPadsToLongestInBatch(t *testing.T) {
	// Two requests in the same bucket (21 and 30) batched together: both
	// pay the padded 30-step execution and complete together.
	model := NewLSTMModel(512, 1)
	stepOv, batchOv := DefaultBucketingOverheads("MXNet")
	cfg := BucketingConfig{
		SystemName: "MXNet", Model: model, Kind: KindChain,
		NumGPUs: 1, BucketWidth: 10, MaxBatch: 512,
		StepOverhead: stepOv, BatchOverhead: batchOv,
	}
	alt := &alternatingWorkload{shapes: []Shape{
		{Kind: KindChain, Len: 21},
		{Kind: KindChain, Len: 30},
	}}
	// High enough rate that batches nearly always mix both lengths.
	res, err := RunBucketing(cfg, alt, shortRun(5_000, 9))
	if err != nil {
		t.Fatal(err)
	}
	comp := res.Computation.P50()
	minPadded := 30 * (model.KernelTime(TypeLSTM, 2) + stepOv)
	if comp < minPadded {
		t.Fatalf("computation p50 = %v, below padded 30-step floor %v", comp, minPadded)
	}
}

func TestBucketingFixedLengthPeakMatchesTheory(t *testing.T) {
	// §7.3: with identical length-24 inputs, padding adds nothing (the
	// batch pads to its own longest = 24), so the baselines closely match
	// the theoretical maximum 512/(784µs·24) ≈ 27.1k req/s.
	model := NewLSTMModel(512, 1)
	stepOv, batchOv := DefaultBucketingOverheads("MXNet")
	cfg := BucketingConfig{
		SystemName: "MXNet", Model: model, Kind: KindChain,
		NumGPUs: 1, BucketWidth: 10, MaxBatch: 512,
		StepOverhead: stepOv, BatchOverhead: batchOv,
	}
	wl := &FixedWorkload{Shape: Shape{Kind: KindChain, Len: 24}}
	res, err := RunBucketing(cfg, wl, shortRun(40_000, 9))
	if err != nil {
		t.Fatal(err)
	}
	tput := res.Throughput()
	if tput < 25_000 || tput > 27_500 {
		t.Fatalf("bucketing saturation = %.0f req/s, want ≈26-27k", tput)
	}
}

// alternatingWorkload cycles through a fixed shape list.
type alternatingWorkload struct {
	shapes []Shape
	i      int
}

func (w *alternatingWorkload) Next() Shape {
	s := w.shapes[w.i%len(w.shapes)]
	w.i++
	return s
}

func TestBucketingRejectsTrees(t *testing.T) {
	model := NewTreeModel(64, 1)
	cfg := BucketingConfig{SystemName: "MXNet", Model: model, Kind: KindTree, NumGPUs: 1, MaxBatch: 64}
	wl := &TreeWorkload{Trees: dataset.NewTreeSampler(1, 10)}
	if _, err := RunBucketing(cfg, wl, shortRun(10, 1)); err == nil {
		t.Fatal("padding cannot batch trees; config must be rejected")
	}
}

func TestGraphMergeFoldSlowerThanDyNet(t *testing.T) {
	model := NewTreeModel(64, 1)
	run := shortRun(1_200, 11)
	wlF := &TreeWorkload{Trees: dataset.NewTreeSampler(11, 100)}
	fold, err := RunGraphMerge(DefaultFoldConfig(model, 1), wlF, run)
	if err != nil {
		t.Fatal(err)
	}
	wlD := &TreeWorkload{Trees: dataset.NewTreeSampler(11, 100)}
	dynet, err := RunGraphMerge(DefaultDyNetConfig(model, 1), wlD, run)
	if err != nil {
		t.Fatal(err)
	}
	if dynet.Latency.P90() >= fold.Latency.P90() {
		t.Fatalf("DyNet p90 %v must beat Fold p90 %v", dynet.Latency.P90(), fold.Latency.P90())
	}
}

func TestIdealFixedTreeRuns(t *testing.T) {
	model := NewTreeModel(64, 1)
	tree, err := cellgraph.CompleteBinaryTree(16, 100)
	if err != nil {
		t.Fatal(err)
	}
	wl := &FixedWorkload{Shape: Shape{Kind: KindTree, Tree: tree}}
	res, err := RunIdealFixedTree(model, 1, tree, 64, 10*time.Microsecond, wl, shortRun(1_000, 12))
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency.Count() == 0 {
		t.Fatal("no measurements")
	}
	// A batch executes 31 sequential cells: latency ≥ 16·t_leaf + 15·t_int.
	min := 16*model.KernelTime(TypeLeaf, 1) + 15*model.KernelTime(TypeInternal, 1)
	if res.Latency.Min() < min {
		t.Fatalf("ideal latency %v below physical floor %v", res.Latency.Min(), min)
	}
}

func TestBatchMakerBeatsBucketingOnWMT(t *testing.T) {
	// The headline result (Figure 7): at moderate load BatchMaker's p90
	// latency is far below the baselines'.
	rate := 5_000.0
	model := NewLSTMModel(512, 1)
	wlBM := &LSTMWorkload{Lengths: dataset.NewWMTLengths(42)}
	bm, err := RunBatchMaker(defaultBMConfig(model, 1), wlBM, shortRun(rate, 13))
	if err != nil {
		t.Fatal(err)
	}
	stepOv, batchOv := DefaultBucketingOverheads("MXNet")
	cfg := BucketingConfig{
		SystemName: "MXNet", Model: model, Kind: KindChain,
		NumGPUs: 1, BucketWidth: 10, MaxBatch: 512,
		StepOverhead: stepOv, BatchOverhead: batchOv,
	}
	wlMX := &LSTMWorkload{Lengths: dataset.NewWMTLengths(42)}
	mx, err := RunBucketing(cfg, wlMX, shortRun(rate, 13))
	if err != nil {
		t.Fatal(err)
	}
	if bm.Latency.P90() >= mx.Latency.P90() {
		t.Fatalf("BatchMaker p90 %v must beat bucketing p90 %v", bm.Latency.P90(), mx.Latency.P90())
	}
	// §7.3: the queuing-time gap is the dominant factor.
	if bm.Queuing.P99() >= mx.Queuing.P99() {
		t.Fatalf("BatchMaker p99 queuing %v must beat bucketing %v", bm.Queuing.P99(), mx.Queuing.P99())
	}
}

func TestCollectorWindowAccounting(t *testing.T) {
	cfg := RunConfig{RatePerSec: 1, Duration: time.Second, Warmup: time.Second}
	c := newCollector("x", cfg)
	// Warmup arrival, warmup completion: not measured at all.
	c.record(100*time.Millisecond, 150*time.Millisecond, 200*time.Millisecond)
	// Warmup arrival, in-window completion: counts for throughput only.
	c.record(900*time.Millisecond, 950*time.Millisecond, 1100*time.Millisecond)
	// In-window arrival and completion: counts for both.
	c.record(1200*time.Millisecond, 1250*time.Millisecond, 1300*time.Millisecond)
	// In-window arrival, post-window completion: latency only.
	c.record(1900*time.Millisecond, 2500*time.Millisecond, 2600*time.Millisecond)
	res := c.result()
	if res.Completed != 2 {
		t.Fatalf("window completions = %d, want 2", res.Completed)
	}
	if res.Latency.Count() != 2 {
		t.Fatalf("latency samples = %d, want 2", res.Latency.Count())
	}
	if res.Throughput() != 2 {
		t.Fatalf("throughput = %v", res.Throughput())
	}
}

func TestProfileTree(t *testing.T) {
	tree, _ := cellgraph.CompleteBinaryTree(8, 10)
	p := profileTree(tree)
	if p.leaves != 8 || p.nodes != 15 {
		t.Fatalf("profile = %+v", p)
	}
	if len(p.internal) != 3 || p.internal[0] != 4 || p.internal[1] != 2 || p.internal[2] != 1 {
		t.Fatalf("levels = %v", p.internal)
	}
	// Skewed tree: heights differ from depth.
	skew := &cellgraph.Tree{
		Left:  &cellgraph.Tree{WordID: 0},
		Right: &cellgraph.Tree{Left: &cellgraph.Tree{WordID: 1}, Right: &cellgraph.Tree{WordID: 2}},
	}
	p = profileTree(skew)
	if p.leaves != 3 || p.nodes != 5 || len(p.internal) != 2 {
		t.Fatalf("skew profile = %+v", p)
	}
}
