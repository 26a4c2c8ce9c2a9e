package conformance

import (
	"fmt"
	"time"

	"batchmaker/internal/cellgraph"
	"batchmaker/internal/dataset"
	"batchmaker/internal/sim"
	"batchmaker/internal/tensor"
)

// GenConfig shapes one generated workload. All probabilities are per
// request; all durations are offsets from the start of the run, virtual
// time in the sim runner and real time in the live runners.
type GenConfig struct {
	// Requests is the number of requests to generate.
	Requests int

	// ChainWeight, TreeWeight and Seq2SeqWeight set the request mix
	// (relative weights; all zero means chains only).
	ChainWeight   int
	TreeWeight    int
	Seq2SeqWeight int

	// MinLen and MaxLen bound chain lengths and seq2seq source lengths.
	MinLen int
	MaxLen int
	// MaxLeaves bounds tree sizes (trees larger than this are resampled
	// down by clipping).
	MaxLeaves int

	// MeanGap is the mean virtual inter-arrival gap (exponential).
	MeanGap time.Duration

	// PCancel is the probability a request is scheduled for caller
	// cancellation CancelAfter into its life.
	PCancel float64
	// CancelAfterMax bounds the virtual cancel delay (uniform in
	// [0, CancelAfterMax]).
	CancelAfterMax time.Duration

	// PDeadline is the probability a request carries a deadline.
	PDeadline float64
	// DeadlineMin and DeadlineMax bound the virtual deadline offset
	// (uniform). Keep these generous relative to expected service time so
	// only a load-dependent fraction expires.
	DeadlineMin time.Duration
	DeadlineMax time.Duration
}

// withDefaults fills zero fields with the standard fuzzing configuration.
func (c GenConfig) withDefaults() GenConfig {
	if c.Requests <= 0 {
		c.Requests = 24
	}
	if c.ChainWeight == 0 && c.TreeWeight == 0 && c.Seq2SeqWeight == 0 {
		c.ChainWeight = 1
	}
	if c.MinLen <= 0 {
		c.MinLen = 1
	}
	if c.MaxLen < c.MinLen {
		c.MaxLen = c.MinLen + 11
	}
	if c.MaxLeaves <= 0 {
		c.MaxLeaves = 12
	}
	if c.MeanGap <= 0 {
		c.MeanGap = 2 * time.Millisecond
	}
	if c.CancelAfterMax <= 0 {
		c.CancelAfterMax = 4 * time.Millisecond
	}
	if c.DeadlineMin <= 0 {
		c.DeadlineMin = 20 * time.Millisecond
	}
	if c.DeadlineMax < c.DeadlineMin {
		c.DeadlineMax = c.DeadlineMin + 60*time.Millisecond
	}
	return c
}

// Request is one generated request: its shape, its deterministic input
// seed, and its virtual-time schedule. The struct is JSON-serializable
// (tree shapes included), so a repro file is self-contained.
type Request struct {
	// Index is the request's position in the originally generated
	// workload; it survives Subset so shrunk repros keep stable names.
	Index int

	// Shape describes the unfolded structure (chain / tree / seq2seq).
	Shape sim.Shape

	// InputSeed derives the request's input tensors and word ids.
	InputSeed uint64

	// Arrival is the virtual submission time.
	Arrival time.Duration

	// CancelAfter, when positive, schedules a caller cancellation at
	// Arrival+CancelAfter.
	CancelAfter time.Duration

	// Deadline, when positive, gives the request a deadline of
	// Arrival+Deadline.
	Deadline time.Duration
}

// Disrupted reports whether the request has a cancellation or deadline
// schedule. Undisrupted requests must complete in every engine, which is
// what makes them cross-checkable between sim and live.
func (r *Request) Disrupted() bool { return r.CancelAfter > 0 || r.Deadline > 0 }

// Cells returns the request's total cell count.
func (r *Request) Cells() int { return r.Shape.Cells() }

// Workload is one generated (or shrunk) request set.
type Workload struct {
	// Seed is the generation seed (kept for repro bookkeeping; a shrunk
	// workload still records the seed it came from).
	Seed uint64
	// Cfg is the generation config (likewise bookkeeping).
	Cfg GenConfig
	// Reqs holds the materialized requests in arrival order.
	Reqs []*Request
}

// Schedule returns the workload's arrivals, one per request in order: at
// Arrival, with the cancel at Arrival+CancelAfter and the expiry at
// Arrival+Deadline (0 where the offset is unset). It is the one conversion
// of a Request to a sim.Arrival; the simulator and both live runners play
// it.
func (w *Workload) Schedule() sim.Schedule {
	as := make([]sim.Arrival, len(w.Reqs))
	for i, r := range w.Reqs {
		as[i] = sim.Arrival{At: r.Arrival, Shape: r.Shape}
		if r.CancelAfter > 0 {
			as[i].Cancel = r.Arrival + r.CancelAfter
		}
		if r.Deadline > 0 {
			as[i].Expire = r.Arrival + r.Deadline
		}
	}
	return sim.Replay(as)
}

// Subset returns a workload containing only the requests at the given
// positions of w.Reqs (not original Index values), preserving order.
func (w *Workload) Subset(keep []int) *Workload {
	reqs := make([]*Request, 0, len(keep))
	for _, i := range keep {
		reqs = append(reqs, w.Reqs[i])
	}
	return &Workload{Seed: w.Seed, Cfg: w.Cfg, Reqs: reqs}
}

// Generate produces a deterministic workload: the same (seed, cfg) always
// yields identical requests, including tree shapes, input seeds, arrival
// times, and the cancellation/deadline schedule.
func Generate(seed uint64, cfg GenConfig) *Workload {
	cfg = cfg.withDefaults()
	rng := tensor.NewRNG(seed)
	trees := dataset.NewTreeSampler(seed^0x7EE5, 32)
	total := cfg.ChainWeight + cfg.TreeWeight + cfg.Seq2SeqWeight
	w := &Workload{Seed: seed, Cfg: cfg}
	now := time.Duration(0)
	for i := 0; i < cfg.Requests; i++ {
		r := &Request{Index: i, InputSeed: rng.Uint64()}
		pick := rng.Intn(total)
		switch {
		case pick < cfg.ChainWeight:
			r.Shape = sim.Shape{Kind: sim.KindChain, Len: cfg.MinLen + rng.Intn(cfg.MaxLen-cfg.MinLen+1)}
		case pick < cfg.ChainWeight+cfg.TreeWeight:
			r.Shape = sim.Shape{Kind: sim.KindTree, Tree: clipTree(trees.Sample(), cfg.MaxLeaves)}
		default:
			r.Shape = sim.Shape{
				Kind:   sim.KindSeq2Seq,
				SrcLen: cfg.MinLen + rng.Intn(cfg.MaxLen-cfg.MinLen+1),
				DstLen: 1 + rng.Intn(cfg.MaxLen),
			}
		}
		gap := time.Duration(float64(cfg.MeanGap) * rng.ExpFloat64())
		now += gap
		r.Arrival = now
		if rng.Float64() < cfg.PCancel {
			r.CancelAfter = time.Duration(1 + rng.Intn(int(cfg.CancelAfterMax)))
		}
		if rng.Float64() < cfg.PDeadline {
			span := int(cfg.DeadlineMax - cfg.DeadlineMin)
			if span <= 0 {
				span = 1
			}
			r.Deadline = cfg.DeadlineMin + time.Duration(rng.Intn(span))
		}
		w.Reqs = append(w.Reqs, r)
	}
	return w
}

// clipTree bounds a sampled tree to at most maxLeaves leaves by walking down
// into the larger child until the subtree fits. The result is still a valid
// binary parse tree from the sampler's distribution's support.
func clipTree(t *cellgraph.Tree, maxLeaves int) *cellgraph.Tree {
	for t.Leaves() > maxLeaves && !t.IsLeaf() {
		if t.Left.Leaves() >= t.Right.Leaves() {
			t = t.Left
		} else {
			t = t.Right
		}
	}
	return t
}

// String summarizes a request for logs and repro notes.
func (r *Request) String() string {
	kind := "chain"
	detail := fmt.Sprintf("len=%d", r.Shape.Len)
	switch r.Shape.Kind {
	case sim.KindTree:
		kind = "tree"
		detail = fmt.Sprintf("leaves=%d", r.Shape.Tree.Leaves())
	case sim.KindSeq2Seq:
		kind = "seq2seq"
		detail = fmt.Sprintf("src=%d dst=%d", r.Shape.SrcLen, r.Shape.DstLen)
	}
	s := fmt.Sprintf("req%d %s %s arrival=%v", r.Index, kind, detail, r.Arrival)
	if r.CancelAfter > 0 {
		s += fmt.Sprintf(" cancel=+%v", r.CancelAfter)
	}
	if r.Deadline > 0 {
		s += fmt.Sprintf(" deadline=+%v", r.Deadline)
	}
	return s
}
