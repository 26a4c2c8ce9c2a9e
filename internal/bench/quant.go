// Quantization benchmark: paired float32-vs-int8 StepInto measurements of
// the production cells on the zero-alloc arena hot path, plus the accuracy
// drift of the quantized twin against its float oracle. Results land in
// BENCH_server.json under "quantization"; GuardReport.CheckQuantRecord gates
// the record's accuracy and consistency.
package bench

import (
	"fmt"
	"math"
	"time"

	"batchmaker/internal/rnn"
	"batchmaker/internal/tensor"
)

// QuantOptions sizes the paired quantization measurement.
type QuantOptions struct {
	// Hidden is the cell width (default 64, the acceptance shape).
	Hidden int
	// Batch is the rows per step (default 8).
	Batch int
	// Steps is the recurrent steps per timed run (default 512).
	Steps int
	// Reps is the number of interleaved f32/int8 timing pairs; the median
	// pair by speedup is reported (default 5).
	Reps int
	// Seed offsets weight and input RNGs (default 1).
	Seed uint64
}

func (o QuantOptions) withDefaults() QuantOptions {
	if o.Hidden == 0 {
		o.Hidden = 64
	}
	if o.Batch == 0 {
		o.Batch = 8
	}
	if o.Steps == 0 {
		o.Steps = 512
	}
	if o.Reps == 0 {
		o.Reps = 5
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// QuantResult is one cell type's paired measurement: timing of the float32
// and int8 StepInto paths on identical weights and inputs, plus the
// quantized twin's drift from the float oracle over the timed sequence.
type QuantResult struct {
	Cell          string  `json:"cell"`
	Hidden        int     `json:"hidden"`
	Batch         int     `json:"batch"`
	Steps         int     `json:"steps"`
	F32NsPerStep  float64 `json:"f32_ns_per_step"`
	Int8NsPerStep float64 `json:"int8_ns_per_step"`
	Speedup       float64 `json:"speedup"`
	MaxAbsErr     float64 `json:"max_abs_err"`
	MinCosine     float64 `json:"min_cosine"`
}

// quantCellPair builds a float oracle and its int8 twin from the same seed.
func quantCellPair(name string, o QuantOptions) (f32, int8 rnn.Cell, err error) {
	mk := func() rnn.Cell {
		switch name {
		case "lstm":
			return rnn.NewLSTMCell(name, o.Hidden, o.Hidden, tensor.NewRNG(o.Seed+11))
		case "gru":
			return rnn.NewGRUCell(name, o.Hidden, o.Hidden, tensor.NewRNG(o.Seed+13))
		}
		return nil
	}
	f32, int8 = mk(), mk()
	if f32 == nil {
		return nil, nil, fmt.Errorf("bench: unknown quant cell %q", name)
	}
	if err := int8.(rnn.PrecisionConfigurable).SetPrecision(rnn.PrecisionInt8); err != nil {
		return nil, nil, err
	}
	return f32, int8, nil
}

// quantInputs builds the recurrent input/output buffers for one cell.
func quantInputs(c rnn.Cell, o QuantOptions) (in, out map[string]*tensor.Tensor) {
	in = map[string]*tensor.Tensor{"h": tensor.New(o.Batch, o.Hidden)}
	for _, name := range c.InputNames() {
		if name == "c" {
			in["c"] = tensor.New(o.Batch, o.Hidden)
		}
	}
	out = map[string]*tensor.Tensor{}
	for name, w := range c.(rnn.OutputSized).OutputWidths() {
		out[name] = tensor.New(o.Batch, w)
	}
	return in, out
}

// timeQuantRun drives StepInto over a fresh recurrent sequence of o.Steps
// steps and returns wall ns/step. The x inputs are regenerated from the
// seed each run so both tiers see identical data; state feeds back through
// the out buffers exactly as the worker exec loop does it.
func timeQuantRun(c rnn.Cell, o QuantOptions) (float64, error) {
	fast := c.(rnn.IntoStepper)
	in, out := quantInputs(c, o)
	arena := tensor.NewArena(0)
	xRNG := tensor.NewRNG(o.Seed + 17)
	x := tensor.New(o.Batch, o.Hidden)
	step := func() error {
		arena.Reset()
		return fast.StepInto(in, out, arena)
	}
	// Warm the arena slabs and recycled headers out of the timed region.
	in["x"] = tensor.RandNormal(xRNG, 1, o.Batch, o.Hidden)
	for i := 0; i < 3; i++ {
		if err := step(); err != nil {
			return 0, err
		}
	}
	in["x"] = x
	xRNG = tensor.NewRNG(o.Seed + 17)
	for name := range out {
		if dst, ok := in[name]; ok {
			d := dst.Data()
			for i := range d {
				d[i] = 0
			}
		}
	}
	start := time.Now()
	for s := 0; s < o.Steps; s++ {
		randNormalInto(xRNG, x)
		if err := step(); err != nil {
			return 0, err
		}
		for name, t := range out {
			if dst, ok := in[name]; ok {
				copy(dst.Data(), t.Data())
			}
		}
	}
	elapsed := time.Since(start)
	return float64(elapsed.Nanoseconds()) / float64(o.Steps), nil
}

// randNormalInto refills t from the RNG without allocating.
func randNormalInto(rng *tensor.RNG, t *tensor.Tensor) {
	d := t.Data()
	for i := range d {
		d[i] = float32(rng.NormFloat64())
	}
}

// quantDrift runs the oracle and twin over the same golden sequence and
// returns worst element-wise error across all steps plus the worst
// end-of-sequence per-row cosine similarity (the rnn package gates the
// same figures in CI; this records them next to the timing they price).
func quantDrift(f32, int8 rnn.Cell, o QuantOptions) (maxAbsErr, minCosine float64, err error) {
	fIn, _ := quantInputs(f32, o)
	qIn, _ := quantInputs(int8, o)
	xRNG := tensor.NewRNG(o.Seed + 19)
	minCosine = 1
	var fH, qH *tensor.Tensor
	steps := o.Steps
	if steps > 64 {
		steps = 64 // drift saturates quickly; no need to walk the full timed length
	}
	for s := 0; s < steps; s++ {
		x := tensor.RandNormal(xRNG, 1, o.Batch, o.Hidden)
		fIn["x"], qIn["x"] = x, x
		fOut, ferr := f32.Step(fIn)
		if ferr != nil {
			return 0, 0, ferr
		}
		qOut, qerr := int8.Step(qIn)
		if qerr != nil {
			return 0, 0, qerr
		}
		for name, ft := range fOut {
			qt := qOut[name]
			for p, v := range ft.Data() {
				if d := math.Abs(float64(v - qt.Data()[p])); d > maxAbsErr {
					maxAbsErr = d
				}
			}
		}
		fH, qH = fOut["h"], qOut["h"]
		for name := range fOut {
			fIn[name], qIn[name] = fOut[name], qOut[name]
		}
	}
	for r := 0; r < o.Batch; r++ {
		var dot, nf, nq float64
		for j := 0; j < o.Hidden; j++ {
			fv, qv := float64(fH.At(r, j)), float64(qH.At(r, j))
			dot += fv * qv
			nf += fv * fv
			nq += qv * qv
		}
		if cos := dot / math.Sqrt(nf*nq); cos < minCosine {
			minCosine = cos
		}
	}
	return maxAbsErr, minCosine, nil
}

// MeasureQuantization runs the paired f32-vs-int8 comparison for the LSTM
// and GRU cells. Timing runs are interleaved (f32, int8, int8, f32, ...)
// and the median pair by speedup is reported, the same drift-immunity
// discipline as the engine comparison in recordPairs.
func MeasureQuantization(o QuantOptions) ([]QuantResult, error) {
	o = o.withDefaults()
	var out []QuantResult
	for _, name := range []string{"lstm", "gru"} {
		f32, int8, err := quantCellPair(name, o)
		if err != nil {
			return nil, err
		}
		type pair struct{ f, q, speedup float64 }
		ps := make([]pair, 0, o.Reps)
		for i := 0; i < o.Reps; i++ {
			var p pair
			if i%2 == 0 {
				if p.f, err = timeQuantRun(f32, o); err != nil {
					return nil, err
				}
				if p.q, err = timeQuantRun(int8, o); err != nil {
					return nil, err
				}
			} else {
				if p.q, err = timeQuantRun(int8, o); err != nil {
					return nil, err
				}
				if p.f, err = timeQuantRun(f32, o); err != nil {
					return nil, err
				}
			}
			p.speedup = p.f / p.q
			ps = append(ps, p)
		}
		for i := 1; i < len(ps); i++ {
			for j := i; j > 0 && ps[j-1].speedup > ps[j].speedup; j-- {
				ps[j-1], ps[j] = ps[j], ps[j-1]
			}
		}
		med := ps[len(ps)/2]
		errAbs, cos, err := quantDrift(f32, int8, o)
		if err != nil {
			return nil, err
		}
		out = append(out, QuantResult{
			Cell:          name,
			Hidden:        o.Hidden,
			Batch:         o.Batch,
			Steps:         o.Steps,
			F32NsPerStep:  med.f,
			Int8NsPerStep: med.q,
			Speedup:       med.speedup,
			MaxAbsErr:     errAbs,
			MinCosine:     cos,
		})
	}
	return out, nil
}

// FormatQuantComparison renders the paired results as recorded.
func FormatQuantComparison(rs []QuantResult) string {
	s := ""
	for _, r := range rs {
		s += fmt.Sprintf("%s h=%d b=%d: f32 %.0f ns/step, int8 %.0f ns/step (%.2fx), maxAbsErr=%.4f minCos=%.5f\n",
			r.Cell, r.Hidden, r.Batch, r.F32NsPerStep, r.Int8NsPerStep, r.Speedup, r.MaxAbsErr, r.MinCosine)
	}
	return s
}
