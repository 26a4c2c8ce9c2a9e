package sim

import (
	"fmt"
	"time"

	"batchmaker/internal/dataset"
	"batchmaker/internal/device"
)

// BucketingConfig configures the padding+bucketing graph-batching baseline
// (TensorFlow / MXNet, §7.1): requests are assigned to buckets by length,
// padded to the bucket's upper bound, and executed as whole unfolded graphs
// under round-robin bucket scheduling. There are no batch-formation
// timeouts: a bucket's (possibly partial) batch starts as soon as a GPU is
// idle and the round-robin turn reaches it, which §7.1 found strictly better
// than timeouts.
type BucketingConfig struct {
	// SystemName labels the result rows ("TensorFlow" or "MXNet").
	SystemName string
	Model      *Model
	Kind       RequestKind // KindChain or KindSeq2Seq
	NumGPUs    int
	// BucketWidth is the maximum length difference within a bucket
	// (default 10, the paper's best trade-off).
	BucketWidth int
	// MaxBatch is the per-bucket maximum batch size.
	MaxBatch int
	// MaxLen bounds the bucket table (WMT: 330).
	MaxLen int
	// StepOverhead is the per-unfolded-step launch cost inside a
	// materialized static graph (kernels pipeline well, so this is small).
	StepOverhead time.Duration
	// BatchOverhead is the per-batch dispatch cost (session overhead,
	// input feeding).
	BatchOverhead time.Duration
	// BatchTimeout, when positive, switches to timeout-based batch
	// formation: a bucket becomes eligible only when it holds MaxBatch
	// requests or its oldest request has waited BatchTimeout. The paper
	// evaluated this strategy and found the no-timeout policy (execute a
	// partial batch whenever a GPU is idle and it is the bucket's turn)
	// strictly better (§7.1); the ablation-timeout experiment reproduces
	// that comparison.
	BatchTimeout time.Duration
}

// DefaultBucketingOverheads returns (stepOverhead, batchOverhead) for the
// named framework; TensorFlow's dispatch path is slightly heavier than
// MXNet's, producing the small separation visible in the paper's figures.
func DefaultBucketingOverheads(system string) (time.Duration, time.Duration) {
	if system == "TensorFlow" {
		return 6 * time.Microsecond, 150 * time.Microsecond
	}
	return 5 * time.Microsecond, 100 * time.Microsecond
}

type bucketRequest struct {
	arrival time.Duration
	shape   Shape
}

type bucketingSim struct {
	cfg     BucketingConfig
	eng     *Engine
	gpus    []*device.GPU
	busy    []bool
	buckets [][]bucketRequest
	rr      int
	col     *collector
	pending int
	// wakeAt is the virtual time of the scheduled timeout wake-up event
	// (0 when none is pending); only used with BatchTimeout.
	wakeAt time.Duration
}

// RunBucketing simulates the padding+bucketing baseline at one load point.
func RunBucketing(cfg BucketingConfig, wl Workload, run RunConfig) (*RunResult, error) {
	if cfg.NumGPUs <= 0 || cfg.Model == nil {
		return nil, fmt.Errorf("sim: bad bucketing config")
	}
	if cfg.Kind != KindChain && cfg.Kind != KindSeq2Seq {
		return nil, fmt.Errorf("sim: bucketing supports chain and seq2seq workloads only (padding cannot batch trees)")
	}
	if cfg.BucketWidth <= 0 {
		cfg.BucketWidth = 10
	}
	if cfg.MaxLen <= 0 {
		cfg.MaxLen = dataset.WMTMaxLen
	}
	nBuckets := (cfg.MaxLen + cfg.BucketWidth - 1) / cfg.BucketWidth
	s := &bucketingSim{
		cfg:     cfg,
		eng:     NewEngine(),
		gpus:    make([]*device.GPU, cfg.NumGPUs),
		busy:    make([]bool, cfg.NumGPUs),
		buckets: make([][]bucketRequest, nBuckets),
		col:     newCollector(cfg.SystemName, run),
	}
	for i := range s.gpus {
		s.gpus[i] = &device.GPU{ID: i}
	}
	s.eng.Feed(poisson(wl, run), func(a Arrival) {
		b := s.bucketOf(a.Shape)
		s.buckets[b] = append(s.buckets[b], bucketRequest{arrival: a.At, shape: a.Shape})
		s.pending++
		s.dispatchIdle()
	})
	for s.eng.Step() {
	}
	if s.pending != 0 {
		return nil, fmt.Errorf("sim: bucketing left %d requests queued", s.pending)
	}
	return s.col.result(), nil
}

// lenOf is the padding-relevant length of a request: the chain length, or
// for Seq2Seq the longer of the source and target (both phases pad to it).
func (s *bucketingSim) lenOf(shape Shape) int {
	l := shape.Len
	if shape.Kind == KindSeq2Seq {
		l = shape.SrcLen
		if shape.DstLen > l {
			l = shape.DstLen
		}
	}
	return l
}

// bucketOf maps a request to its bucket index: the i-th bucket handles
// lengths in (i*w, (i+1)*w].
func (s *bucketingSim) bucketOf(shape Shape) int {
	b := (s.lenOf(shape) - 1) / s.cfg.BucketWidth
	if b >= len(s.buckets) {
		b = len(s.buckets) - 1
	}
	return b
}

// dispatchIdle hands bucket batches to every idle GPU under round-robin.
// With BatchTimeout configured it also arms a wake-up for the earliest
// not-yet-eligible bucket.
func (s *bucketingSim) dispatchIdle() {
	for g := range s.gpus {
		if s.busy[g] {
			continue
		}
		b, wake := s.nextEligibleBucket()
		if b < 0 {
			if wake > 0 && (s.wakeAt == 0 || wake < s.wakeAt) {
				s.wakeAt = wake
				s.eng.At(wake, func() {
					s.wakeAt = 0
					s.dispatchIdle()
				})
			}
			return
		}
		s.execBucketBatch(g, b)
	}
}

// nextEligibleBucket returns the next bucket to execute under round-robin,
// or (-1, earliestEligibility) when none qualifies yet.
func (s *bucketingSim) nextEligibleBucket() (int, time.Duration) {
	n := len(s.buckets)
	var earliest time.Duration
	for i := 0; i < n; i++ {
		idx := (s.rr + i) % n
		q := s.buckets[idx]
		if len(q) == 0 {
			continue
		}
		if s.cfg.BatchTimeout > 0 && len(q) < s.cfg.MaxBatch {
			ready := q[0].arrival + s.cfg.BatchTimeout
			if ready > s.eng.Now() {
				if earliest == 0 || ready < earliest {
					earliest = ready
				}
				continue
			}
		}
		s.rr = (idx + 1) % n
		return idx, 0
	}
	return -1, earliest
}

func (s *bucketingSim) execBucketBatch(g, b int) {
	take := len(s.buckets[b])
	if take > s.cfg.MaxBatch {
		take = s.cfg.MaxBatch
	}
	batch := s.buckets[b][:take]
	s.buckets[b] = append([]bucketRequest(nil), s.buckets[b][take:]...)
	s.pending -= take

	// Padding goes to the longest request in the batch; the bucket bound
	// caps the waste at BucketWidth-1 steps. (This is why the paper's
	// fixed-length experiment reaches the no-padding theoretical peak.)
	padded := 0
	for _, r := range batch {
		l := s.lenOf(r.shape)
		if l > padded {
			padded = l
		}
	}
	dur := s.batchTime(padded, take)
	start, end := s.gpus[g].Submit(s.eng.Now(), dur)
	s.busy[g] = true
	reqs := append([]bucketRequest(nil), batch...)
	s.eng.At(end, func() {
		// Graph batching: every request in the batch completes only when
		// the whole padded graph finishes (§2.3).
		for _, r := range reqs {
			s.col.record(r.arrival, start, end)
		}
		s.busy[g] = false
		s.dispatchIdle()
	})
}

// batchTime is the execution time of one padded graph at the given batch
// size: padded-length steps of the (encoder and, for Seq2Seq, decoder) cell.
func (s *bucketingSim) batchTime(paddedLen, batch int) time.Duration {
	switch s.cfg.Kind {
	case KindChain:
		step := s.cfg.Model.KernelTime(TypeLSTM, batch) + s.cfg.StepOverhead
		return s.cfg.BatchOverhead + time.Duration(paddedLen)*step
	case KindSeq2Seq:
		encStep := s.cfg.Model.KernelTime(TypeEncoder, batch) + s.cfg.StepOverhead
		decStep := s.cfg.Model.KernelTime(TypeDecoder, batch) + s.cfg.StepOverhead
		return s.cfg.BatchOverhead + time.Duration(paddedLen)*(encStep+decStep)
	}
	panic("sim: unreachable")
}
