package sim

import (
	"fmt"
	"time"

	"batchmaker/internal/cellgraph"
	"batchmaker/internal/device"
)

// GraphMergeConfig configures the dynamic graph-merging baselines
// (TensorFlow Fold and DyNet, §2.3 and §7.5): the system collects up to
// MaxBatch requests, generates a dataflow graph per request, merges the
// graphs by fusing equivalent operators, and executes the merged graph
// level-synchronously. Merging costs CPU time proportional to the total
// node count; Fold overlaps merging with GPU execution (the paper's own
// optimization), DyNet does not need to because its merge is cheaper.
type GraphMergeConfig struct {
	SystemName string
	Model      *Model
	NumGPUs    int
	// MaxBatch bounds the number of *input trees* per merged batch (64),
	// not the per-operator batch width (§7.5).
	MaxBatch int
	// MergePerNode is the CPU cost of graph construction+merging per cell
	// node. Fold (Python) is expensive; DyNet (C++) is much cheaper.
	MergePerNode time.Duration
	// OverlapMerge pipelines batch k+1's merge with batch k's execution.
	OverlapMerge bool
	// KernelSlowdown scales kernel times (Fold is pinned to TensorFlow
	// v1.0 + CUDA 8, ~20% slower, §7.5).
	KernelSlowdown float64
	// StepOverhead is the per-batched-operator launch cost.
	StepOverhead time.Duration
}

// DefaultFoldConfig returns the TensorFlow Fold calibration.
func DefaultFoldConfig(model *Model, gpus int) GraphMergeConfig {
	return GraphMergeConfig{
		SystemName:     "TF Fold",
		Model:          model,
		NumGPUs:        gpus,
		MaxBatch:       64,
		MergePerNode:   30 * time.Microsecond,
		OverlapMerge:   true,
		KernelSlowdown: 1.2,
		StepOverhead:   10 * time.Microsecond,
	}
}

// DefaultDyNetConfig returns the DyNet calibration.
func DefaultDyNetConfig(model *Model, gpus int) GraphMergeConfig {
	return GraphMergeConfig{
		SystemName:     "DyNet",
		Model:          model,
		NumGPUs:        gpus,
		MaxBatch:       64,
		MergePerNode:   7 * time.Microsecond,
		OverlapMerge:   false,
		KernelSlowdown: 1.0,
		StepOverhead:   8 * time.Microsecond,
	}
}

// treeProfile is the per-level node histogram of a tree: how many leaf
// cells run at height 0 and how many internal cells at each height above.
type treeProfile struct {
	leaves   int
	internal []int // internal[k-1] = nodes at height k
	nodes    int
}

func profileTree(t *cellgraph.Tree) treeProfile {
	var p treeProfile
	var walk func(n *cellgraph.Tree) int // returns height
	walk = func(n *cellgraph.Tree) int {
		p.nodes++
		if n.IsLeaf() {
			p.leaves++
			return 0
		}
		hl, hr := walk(n.Left), walk(n.Right)
		h := hl
		if hr > h {
			h = hr
		}
		h++
		for len(p.internal) < h {
			p.internal = append(p.internal, 0)
		}
		p.internal[h-1]++
		return h
	}
	walk(t)
	return p
}

type mergeRequest struct {
	arrival time.Duration
	profile treeProfile
}

type graphMergeSim struct {
	cfg   GraphMergeConfig
	eng   *Engine
	queue []mergeRequest
	// Pipeline resources: one merge CPU and the GPUs.
	cpuFree time.Duration
	gpus    []*device.GPU
	busy    int // GPUs executing
	col     *collector
}

// RunGraphMerge simulates a graph-merging baseline at one load point.
func RunGraphMerge(cfg GraphMergeConfig, wl Workload, run RunConfig) (*RunResult, error) {
	if cfg.NumGPUs <= 0 || cfg.Model == nil {
		return nil, fmt.Errorf("sim: bad graph-merge config")
	}
	if cfg.KernelSlowdown <= 0 {
		cfg.KernelSlowdown = 1
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 64
	}
	s := &graphMergeSim{
		cfg:  cfg,
		eng:  NewEngine(),
		gpus: make([]*device.GPU, cfg.NumGPUs),
		col:  newCollector(cfg.SystemName, run),
	}
	for i := range s.gpus {
		s.gpus[i] = &device.GPU{ID: i}
	}
	s.eng.Feed(poisson(wl, run), func(a Arrival) {
		if a.Shape.Kind != KindTree {
			panic("sim: graph-merge baseline drives tree workloads")
		}
		s.queue = append(s.queue, mergeRequest{arrival: a.At, profile: profileTree(a.Shape.Tree)})
		s.tryDispatch()
	})
	for s.eng.Step() {
	}
	if len(s.queue) != 0 {
		return nil, fmt.Errorf("sim: graph-merge left %d requests queued", len(s.queue))
	}
	return s.col.result(), nil
}

func (s *graphMergeSim) tryDispatch() {
	for s.busy < len(s.gpus) && len(s.queue) > 0 {
		take := len(s.queue)
		if take > s.cfg.MaxBatch {
			take = s.cfg.MaxBatch
		}
		batch := append([]mergeRequest(nil), s.queue[:take]...)
		s.queue = append([]mergeRequest(nil), s.queue[take:]...)
		s.dispatch(batch)
	}
}

func (s *graphMergeSim) dispatch(batch []mergeRequest) {
	totalNodes := 0
	leaves := 0
	var levels []int
	for _, r := range batch {
		totalNodes += r.profile.nodes
		leaves += r.profile.leaves
		for k, n := range r.profile.internal {
			for len(levels) <= k {
				levels = append(levels, 0)
			}
			levels[k] += n
		}
	}
	mergeCost := time.Duration(totalNodes) * s.cfg.MergePerNode
	now := s.eng.Now()

	// Merge stage (CPU).
	mergeStart := now
	if s.cpuFree > mergeStart {
		mergeStart = s.cpuFree
	}
	mergeEnd := mergeStart + mergeCost
	s.cpuFree = mergeEnd

	// Execution stage (GPU). Without overlap the merge blocks the pipeline
	// end to end; with overlap (Fold's optimization) execution of batch k
	// proceeds while batch k+1 merges, so the GPU only waits for this
	// batch's own merge.
	gpu := s.gpus[0]
	for _, g := range s.gpus[1:] {
		if g.BusyUntil() < gpu.BusyUntil() {
			gpu = g
		}
	}
	execTime := s.execTime(leaves, levels)
	start, end := gpu.Submit(mergeEnd, execTime)
	s.busy++
	reqs := batch
	s.eng.At(end, func() {
		for _, r := range reqs {
			s.col.record(r.arrival, start, end)
		}
		s.busy--
		s.tryDispatch()
	})
	if !s.cfg.OverlapMerge {
		// Serial pipeline: the CPU is also unavailable during execution
		// (Python driver blocks on the session).
		if end > s.cpuFree {
			s.cpuFree = end
		}
	}
}

// execTime is the merged graph's level-synchronous execution time: one
// batched leaf op over all leaves, then one batched internal op per height
// level. The amount of batching shrinks toward the roots (§7.5).
func (s *graphMergeSim) execTime(leaves int, levels []int) time.Duration {
	total := s.cfg.StepOverhead
	if leaves > 0 {
		total += scaleDur(s.cfg.Model.KernelTime(TypeLeaf, leaves), s.cfg.KernelSlowdown)
	}
	for _, n := range levels {
		if n == 0 {
			continue
		}
		total += s.cfg.StepOverhead
		total += scaleDur(s.cfg.Model.KernelTime(TypeInternal, n), s.cfg.KernelSlowdown)
	}
	return total
}

func scaleDur(d time.Duration, f float64) time.Duration {
	return time.Duration(float64(d) * f)
}

// RunIdealFixedTree simulates the paper's Figure 15 "Ideal" baseline: a
// hand-written static dataflow graph exactly matching one fixed tree
// structure, executing each of the tree's cells as a batch-64 operator in
// sequence. There is no merge cost and no padding, but also no within-
// request level fusion: a 16-leaf complete tree runs 31 sequential cells.
func RunIdealFixedTree(model *Model, gpus int, tree *cellgraph.Tree, maxBatch int, stepOverhead time.Duration, wl Workload, run RunConfig) (*RunResult, error) {
	if gpus <= 0 || model == nil {
		return nil, fmt.Errorf("sim: bad ideal config")
	}
	p := profileTree(tree)
	eng := NewEngine()
	devs := make([]*device.GPU, gpus)
	for i := range devs {
		devs[i] = &device.GPU{ID: i}
	}
	col := newCollector("Ideal", run)
	var queue []time.Duration // arrival times
	busy := 0

	// Per-batch execution: every cell of the fixed graph is one batched op
	// at the batch's request count.
	execTime := func(b int) time.Duration {
		leafT := model.KernelTime(TypeLeaf, b) + stepOverhead
		intT := model.KernelTime(TypeInternal, b) + stepOverhead
		return time.Duration(p.leaves)*leafT + time.Duration(p.nodes-p.leaves)*intT
	}

	var tryDispatch func()
	tryDispatch = func() {
		for busy < gpus && len(queue) > 0 {
			take := len(queue)
			if take > maxBatch {
				take = maxBatch
			}
			batch := append([]time.Duration(nil), queue[:take]...)
			queue = append([]time.Duration(nil), queue[take:]...)
			gpu := devs[0]
			for _, g := range devs[1:] {
				if g.BusyUntil() < gpu.BusyUntil() {
					gpu = g
				}
			}
			start, end := gpu.Submit(eng.Now(), execTime(take))
			busy++
			eng.At(end, func() {
				for _, a := range batch {
					col.record(a, start, end)
				}
				busy--
				tryDispatch()
			})
		}
	}

	// The fixed graph ignores each arrival's shape.
	eng.Feed(poisson(wl, run), func(a Arrival) {
		queue = append(queue, a.At)
		tryDispatch()
	})
	for eng.Step() {
	}
	if len(queue) != 0 {
		return nil, fmt.Errorf("sim: ideal left %d requests queued", len(queue))
	}
	return col.result(), nil
}
