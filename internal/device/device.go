// Package device models the GPU substrate BatchMaker schedules onto.
//
// The paper runs on NVIDIA V100s; this repository substitutes a simulated
// device whose timing is calibrated to the paper's own measurements
// (Figure 3 and §7.3): a batched LSTM step at hidden size 1024 costs ~185µs
// for batch sizes up to 64, grows sublinearly to ~784µs at 512, and roughly
// doubles with the batch beyond that. Everything the paper's experiments
// measure — queuing, padding waste, batching efficiency, pinning, multi-GPU
// balance — depends only on this curve's shape and on FIFO stream semantics,
// both reproduced here (see DESIGN.md "Substitutions").
//
// The package also models the two GPU interaction mechanisms §5 describes:
// pipelined kernel launch (a per-task launch overhead instead of a per-
// operator stall) and signaling-kernel completion (a small polling delay on
// completion notification instead of a driver callback stall).
package device

import (
	"fmt"
	"math"
	"time"
)

// Curve is a batch-size → kernel-time cost curve with the shape of the
// paper's Figure 3: an affine regime t(b) = Fixed + PerRow·b (nearly flat
// for small b because the fixed kernel cost dominates, then sublinear
// growth of the *relative* cost), turning linear-through-origin beyond the
// Knee ("when b > 512, the execution time approximately doubles as b
// doubles"). The affine small-batch regime is what makes the paper's
// Figure 8 observation possible — bucket width 1 (330 buckets, many tiny
// batches) achieves the best peak throughput because small batches cost far
// less than large ones.
type Curve struct {
	// Fixed is the per-kernel launch+drain cost.
	Fixed time.Duration
	// PerRow is the marginal cost per batched row.
	PerRow time.Duration
	// Knee is the batch size beyond which time scales linearly with b
	// (throughput saturates).
	Knee int
}

// Time returns the kernel execution time for one batched invocation of size
// b. It panics if b <= 0.
func (c Curve) Time(b int) time.Duration {
	if b <= 0 {
		panic(fmt.Sprintf("device: batch size %d", b))
	}
	if b <= c.Knee {
		return c.Fixed + time.Duration(b)*c.PerRow
	}
	kneeTime := float64(c.Fixed + time.Duration(c.Knee)*c.PerRow)
	return time.Duration(kneeTime * float64(b) / float64(c.Knee))
}

// Throughput returns cells/second at batch size b.
func (c Curve) Throughput(b int) float64 {
	return float64(b) / c.Time(b).Seconds()
}

// BestBatch returns the batch size (among powers of two up to limit) with
// the highest throughput — how the paper picks the "desired maximum batch
// size" per cell type through offline benchmarking (§4.2).
func (c Curve) BestBatch(limit int) int {
	best, bestTput := 1, 0.0
	for b := 1; b <= limit; b *= 2 {
		if tp := c.Throughput(b); tp > bestTput*1.001 {
			best, bestTput = b, tp
		}
	}
	return best
}

// Calibration constants from the paper.
const (
	// LSTMStep64 is the LSTM step time at batch 64 (§7.3: "batch size 64
	// ... takes about 185 microseconds").
	LSTMStep64 = 185 * time.Microsecond
	// LSTMStep512 is the LSTM step time at batch 512 (§7.3: "approximately
	// 784 microseconds for the batch size 512").
	LSTMStep512 = 784 * time.Microsecond
	// DecoderCostFactor scales decoder cells: the output projection to a
	// 30k vocabulary makes decoding ~75% of Seq2Seq compute at equal
	// source/target lengths, i.e. a decoder step is ~3x an encoder step.
	DecoderCostFactor = 3.0
)

// lstmFixed/lstmPerRow solve Fixed + 64·PerRow = 185µs and
// Fixed + 512·PerRow = 784µs: PerRow = 599/448 µs, Fixed ≈ 99.4µs.
const (
	lstmPerRow = time.Duration(599_000 / 448) // ≈1.337µs
	lstmFixed  = LSTMStep64 - 64*lstmPerRow   // ≈99.4µs
)

// LSTMGPUCurve is the calibrated GPU curve for one LSTM step at hidden 1024
// (encoder cells, plain LSTM cells, TreeLSTM internal cells). It passes
// exactly through the paper's anchors t(64)=185µs and t(512)=784µs.
func LSTMGPUCurve() Curve {
	return Curve{Fixed: lstmFixed, PerRow: lstmPerRow, Knee: 512}
}

// DecoderGPUCurve is the calibrated curve for one Seq2Seq decoder step:
// ~3x the LSTM cost with the throughput-optimal batch at 256 (§7.4).
func DecoderGPUCurve() Curve {
	return Curve{
		Fixed:  time.Duration(DecoderCostFactor * float64(lstmFixed)),
		PerRow: time.Duration(DecoderCostFactor * float64(lstmPerRow)),
		Knee:   256,
	}
}

// TreeLeafGPUCurve is the curve for TreeLSTM leaf cells: an embedding lookup
// plus a smaller matmul, ~3/4 of a full LSTM step.
func TreeLeafGPUCurve() Curve {
	return Curve{Fixed: lstmFixed * 3 / 4, PerRow: lstmPerRow * 3 / 4, Knee: 512}
}

// LSTMCPUCurve approximates the paper's CPU measurements (Figure 3 top,
// Xeon E5-2698v4 + MKL): ~1ms per step for small batches, saturating near
// 60k cells/s at batch 4096.
func LSTMCPUCurve() Curve {
	return Curve{Fixed: 1 * time.Millisecond, PerRow: 16600 * time.Nanosecond, Knee: 4096}
}

// CostModel maps cell types to cost curves.
type CostModel struct {
	curves map[string]Curve
}

// NewCostModel returns an empty model.
func NewCostModel() *CostModel {
	return &CostModel{curves: make(map[string]Curve)}
}

// SetCurve registers the curve for a cell type.
func (m *CostModel) SetCurve(typeKey string, c Curve) { m.curves[typeKey] = c }

// KernelTime returns the batched kernel time for a cell type; it panics on
// unknown types, which indicates an experiment wiring bug.
func (m *CostModel) KernelTime(typeKey string, b int) time.Duration {
	c, ok := m.curves[typeKey]
	if !ok {
		panic(fmt.Sprintf("device: no cost curve for cell type %q", typeKey))
	}
	return c.Time(b)
}

// Curve returns the registered curve.
func (m *CostModel) Curve(typeKey string) (Curve, bool) {
	c, ok := m.curves[typeKey]
	return c, ok
}

// Overheads models the CPU-GPU interaction costs of §5 and §7.3.
type Overheads struct {
	// KernelLaunch is charged once per task; the §5 optimization pushes all
	// kernels of a task (and up to MaxTasksToSubmit tasks) asynchronously,
	// so launch cost does not scale with operator count.
	KernelLaunch time.Duration
	// GatherBase and GatherSqrt model the memory-contiguity copy that
	// assembles a batched input from scattered request state, plus
	// scheduling bookkeeping: overhead(b) = GatherBase + GatherSqrt·√b.
	// Two calibration anchors from §7: at batch 64 a step costs ~250µs
	// against a 185µs kernel (~65µs total overhead with KernelLaunch), and
	// on fixed-length input BatchMaker reaches ~87% of the theoretical
	// peak, i.e. ~100µs of overhead on a 784µs batch-512 kernel.
	GatherBase time.Duration
	GatherSqrt time.Duration
	// CompletionPoll is the delay before the polling thread observes the
	// signaling kernel's write (§5, "Asynchronous Completion Notification").
	CompletionPoll time.Duration
	// DeviceCopyLatency + DeviceCopyPerByte model cross-GPU state movement
	// when a subgraph migrates between workers.
	DeviceCopyLatency time.Duration
	DeviceCopyPerByte time.Duration
}

// DefaultOverheads returns the calibrated values: PerTask(64) ≈ 65µs and
// PerTask(512) ≈ 102µs, matching both §7.3 anchors.
func DefaultOverheads() Overheads {
	return Overheads{
		KernelLaunch:      12 * time.Microsecond,
		GatherBase:        32700 * time.Nanosecond,
		GatherSqrt:        2530 * time.Nanosecond,
		CompletionPoll:    5 * time.Microsecond,
		DeviceCopyLatency: 10 * time.Microsecond,
		DeviceCopyPerByte: time.Duration(1), // ~1ns/byte ≈ 1 GB/ms (NVLink-ish)
	}
}

// PerTask returns the overhead charged per batched task of size b.
func (o Overheads) PerTask(b int) time.Duration {
	return o.KernelLaunch + o.GatherBase + time.Duration(float64(o.GatherSqrt)*math.Sqrt(float64(b)))
}

// CopyTime returns the cross-device copy time for n bytes.
func (o Overheads) CopyTime(n int) time.Duration {
	return o.DeviceCopyLatency + time.Duration(n)*o.DeviceCopyPerByte
}

// GPU is one simulated device: a FIFO stream whose tasks execute in
// submission order (the invariant §4.3's pinning correctness relies on).
type GPU struct {
	ID        int
	busyUntil time.Duration
	busyTime  time.Duration
	tasks     int
}

// Submit schedules a kernel of the given duration at virtual time now and
// returns its (start, end) times. Tasks run back to back in FIFO order.
func (g *GPU) Submit(now time.Duration, dur time.Duration) (start, end time.Duration) {
	start = now
	if g.busyUntil > start {
		start = g.busyUntil
	}
	end = start + dur
	g.busyUntil = end
	g.busyTime += dur
	g.tasks++
	return start, end
}

// BusyUntil returns when the stream drains.
func (g *GPU) BusyUntil() time.Duration { return g.busyUntil }

// Utilization returns the busy fraction over elapsed virtual time.
func (g *GPU) Utilization(elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(g.busyTime) / float64(elapsed)
}

// Tasks returns the number of submitted tasks.
func (g *GPU) Tasks() int { return g.tasks }

// MicrobenchPoint is one row of the Figure 3 microbenchmark.
type MicrobenchPoint struct {
	Batch      int
	Time       time.Duration
	Throughput float64 // cells per second
}

// Microbench sweeps batch sizes b = 2, 4, ..., maxB over a curve,
// regenerating the paper's Figure 3 series.
func Microbench(c Curve, maxB int) []MicrobenchPoint {
	var out []MicrobenchPoint
	for b := 2; b <= maxB; b *= 2 {
		out = append(out, MicrobenchPoint{
			Batch:      b,
			Time:       c.Time(b),
			Throughput: c.Throughput(b),
		})
	}
	return out
}
