package rnn

import (
	"fmt"

	"batchmaker/internal/tensor"
)

// Precision selects the arithmetic tier a cell executes its step kernels
// in (DESIGN.md §14). The float32 tier is the conformance oracle and
// stays bit-stable; the int8 tier trades a bounded, CI-gated accuracy
// loss for raw kernel speed (symmetric int8 weights and activations,
// exact int32 SWAR dot products, fast float32 activation epilogues).
type Precision int

// Precision tiers.
const (
	PrecisionF32 Precision = iota
	PrecisionInt8
)

// String returns the flag spelling of the tier.
func (p Precision) String() string {
	switch p {
	case PrecisionF32:
		return "f32"
	case PrecisionInt8:
		return "int8"
	}
	return fmt.Sprintf("precision(%d)", int(p))
}

// ParsePrecision parses a -precision flag value. Unknown values return a
// structured error naming the accepted spellings, so callers can fail
// loudly instead of silently defaulting.
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "", "f32", "float32", "fp32":
		return PrecisionF32, nil
	case "int8", "i8":
		return PrecisionInt8, nil
	}
	return PrecisionF32, fmt.Errorf("rnn: unknown precision %q (want f32 or int8)", s)
}

// PrecisionConfigurable is implemented by cells that can switch execution
// tiers. SetPrecision is NOT safe to call concurrently with Step/StepInto;
// configure precision before serving. Switching to int8 pre-quantizes the
// weights and runs the calibration pass; switching back to f32 restores
// the exact float path. The TypeKey changes with the tier (a quantized
// cell computes different results, so it must never share a batch with
// its float twin).
type PrecisionConfigurable interface {
	SetPrecision(p Precision) error
	Precision() Precision
}

// typeKeySuffixInt8 marks quantized cell types; schedulers and cost
// models treat the suffixed key as a distinct kernel.
const typeKeySuffixInt8 = "+int8"

// calibrationSeed fixes the seeded activation sample used by the
// calibration passes, so a given set of weights always calibrates to the
// same activation scales (and hence a stable quantized TypeKey).
const calibrationSeed = 0xCA11B247E

// Calibration sample geometry: enough rows and recurrent steps for the
// hidden state to reach its stationary magnitude (|h| < 1 for LSTM/GRU,
// but the concat absmax is dominated by the x distribution).
const (
	calibRows  = 8
	calibSteps = 16
)

// lstmQuant is the pre-quantized int8 state of an LSTM cell: transposed
// per-output-channel int8 weights and the calibrated per-tensor scale of
// the [x, h] concat activations.
type lstmQuant struct {
	wq      *tensor.Int8Tensor // weight-form [4h, in+h]
	inScale float32
}

// SetPrecision implements PrecisionConfigurable.
func (c *LSTMCell) SetPrecision(p Precision) error {
	switch p {
	case PrecisionF32:
		c.q = nil
	case PrecisionInt8:
		if c.q == nil {
			// Calibrate first: the pass runs the float path, which requires
			// c.q to still be nil.
			scale := c.calibrateInt8()
			c.q = &lstmQuant{wq: tensor.QuantizeWeights(c.w), inScale: scale}
		}
	default:
		return fmt.Errorf("rnn: %s: unsupported precision %v", c.name, p)
	}
	c.typeKey = c.Def().TypeKey(c.Weights().Fingerprint())
	if c.q != nil {
		c.typeKey += typeKeySuffixInt8
	}
	return nil
}

// Precision implements PrecisionConfigurable.
func (c *LSTMCell) Precision() Precision {
	if c.q != nil {
		return PrecisionInt8
	}
	return PrecisionF32
}

// calibrateInt8 runs the float32 cell recurrently over a seeded N(0,1)
// input sample and returns absmax([x, h])/127 — the static activation
// scale of the quantized gate matmul. Inputs beyond the calibrated range
// saturate at ±127 codes, which is the symmetric-quantization contract.
func (c *LSTMCell) calibrateInt8() float32 {
	rng := tensor.NewRNG(calibrationSeed)
	h := tensor.New(calibRows, c.hidden)
	cc := tensor.New(calibRows, c.hidden)
	hN := tensor.New(calibRows, c.hidden)
	cN := tensor.New(calibRows, c.hidden)
	var m float32
	for t := 0; t < calibSteps; t++ {
		x := tensor.RandNormal(rng, 1, calibRows, c.inDim)
		if v := x.MaxAbs(); v > m {
			m = v
		}
		if v := h.MaxAbs(); v > m {
			m = v
		}
		c.stepCore(x, h, cc, hN, cN, nil)
		h, hN = hN, h
		cc, cN = cN, cc
	}
	return m / 127
}

// gruQuant is the pre-quantized int8 state of a GRU cell: three weight
// tensors and the calibrated scales of its two concat activations
// ([x, h] for the z/r gates, [x, r*h] for the candidate).
type gruQuant struct {
	wz, wr, wh *tensor.Int8Tensor // weight-form [h, in+h]
	xhScale    float32
	xrhScale   float32
}

// SetPrecision implements PrecisionConfigurable.
func (c *GRUCell) SetPrecision(p Precision) error {
	switch p {
	case PrecisionF32:
		c.q = nil
	case PrecisionInt8:
		if c.q == nil {
			xhS, xrhS := c.calibrateInt8()
			c.q = &gruQuant{
				wz:      tensor.QuantizeWeights(c.wz),
				wr:      tensor.QuantizeWeights(c.wr),
				wh:      tensor.QuantizeWeights(c.wh),
				xhScale: xhS, xrhScale: xrhS,
			}
		}
	default:
		return fmt.Errorf("rnn: %s: unsupported precision %v", c.name, p)
	}
	c.typeKey = c.Def().TypeKey(c.Weights().Fingerprint())
	if c.q != nil {
		c.typeKey += typeKeySuffixInt8
	}
	return nil
}

// Precision implements PrecisionConfigurable.
func (c *GRUCell) Precision() Precision {
	if c.q != nil {
		return PrecisionInt8
	}
	return PrecisionF32
}

// calibrateInt8 runs the float32 GRU recurrently over a seeded sample and
// returns the absmax-derived scales of both concat activations.
func (c *GRUCell) calibrateInt8() (xhScale, xrhScale float32) {
	rng := tensor.NewRNG(calibrationSeed)
	h := tensor.New(calibRows, c.hidden)
	var mXH, mXRH float32
	for t := 0; t < calibSteps; t++ {
		x := tensor.RandNormal(rng, 1, calibRows, c.inDim)
		xh := tensor.ConcatCols(x, h)
		if v := xh.MaxAbs(); v > mXH {
			mXH = v
		}
		z := tensor.Sigmoid(tensor.MatMulAddBias(xh, c.wz, c.bz))
		r := tensor.Sigmoid(tensor.MatMulAddBias(xh, c.wr, c.br))
		rh := tensor.Mul(r, h)
		xrh := tensor.ConcatCols(x, rh)
		if v := xrh.MaxAbs(); v > mXRH {
			mXRH = v
		}
		hc := tensor.Tanh(tensor.MatMulAddBias(xrh, c.wh, c.bh))
		h = tensor.Add(h, tensor.Mul(z, tensor.Sub(hc, h)))
	}
	return mXH / 127, mXRH / 127
}

// SetPrecision implements PrecisionConfigurable by forwarding to the
// inner LSTM (the embedding gather has no arithmetic to quantize).
func (c *EncoderCell) SetPrecision(p Precision) error {
	if err := c.lstm.SetPrecision(p); err != nil {
		return err
	}
	c.typeKey = c.Def().TypeKey(c.Weights().Fingerprint())
	if c.lstm.q != nil {
		c.typeKey += typeKeySuffixInt8
	}
	return nil
}

// Precision implements PrecisionConfigurable.
func (c *EncoderCell) Precision() Precision { return c.lstm.Precision() }

// SetPrecision implements PrecisionConfigurable by forwarding to the
// inner LSTM. The output projection stays float32: its accuracy directly
// decides the argmax word emitted to clients (quantizing it is future work,
// DESIGN.md §14).
func (c *DecoderCell) SetPrecision(p Precision) error {
	if err := c.lstm.SetPrecision(p); err != nil {
		return err
	}
	c.typeKey = c.Def().TypeKey(c.Weights().Fingerprint())
	if c.lstm.q != nil {
		c.typeKey += typeKeySuffixInt8
	}
	return nil
}

// Precision implements PrecisionConfigurable.
func (c *DecoderCell) Precision() Precision { return c.lstm.Precision() }

// applyLSTMGatesFast is the int8 tier's gate sweep: identical math to
// applyLSTMGates but through the fast float32 activations instead of the
// float64 libm path. Only quantized cells use it, so the float tier's
// bit-stability contract is untouched.
func applyLSTMGatesFast(gates, cPrev, hNew, cNew *tensor.Tensor, hidden int) {
	b := gates.Dim(0)
	gd, cp, hn, cn := gates.Data(), cPrev.Data(), hNew.Data(), cNew.Data()
	for r := 0; r < b; r++ {
		g := gd[r*4*hidden : (r+1)*4*hidden]
		cpr := cp[r*hidden : (r+1)*hidden]
		hnr := hn[r*hidden : (r+1)*hidden]
		cnr := cn[r*hidden : (r+1)*hidden]
		for j := 0; j < hidden; j++ {
			i := tensor.FastSigmoid(g[j])
			f := tensor.FastSigmoid(g[hidden+j])
			gg := tensor.FastTanh(g[2*hidden+j])
			o := tensor.FastSigmoid(g[3*hidden+j])
			cnr[j] = f*cpr[j] + i*gg
			hnr[j] = o * tensor.FastTanh(cnr[j])
		}
	}
}

// Compile-time checks: the quantizable cells implement the knob.
var (
	_ PrecisionConfigurable = (*LSTMCell)(nil)
	_ PrecisionConfigurable = (*GRUCell)(nil)
	_ PrecisionConfigurable = (*EncoderCell)(nil)
	_ PrecisionConfigurable = (*DecoderCell)(nil)
)
