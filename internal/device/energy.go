package device

import (
	"fmt"
	"time"
)

// Per-kernel energy accounting and quantized-tier derivation.
//
// E-BATCH (PAPERS.md) argues RNN batching policies should be co-designed
// with kernel cost AND energy: a faster tier that burns proportionally
// more power is not automatically a win for a datacenter operator. The
// cost model therefore carries an EnergyModel next to each Curve, and a
// measured kernel speedup (f32 ÷ int8 ns per step, BenchmarkLSTMStepF32 /
// BenchmarkLSTMStepInt8 in internal/rnn) can be turned into a derived
// tier — time scaled down by the speedup, energy scaled by speedup and a
// power ratio — priced under the tier-suffixed type key ("<key>+int8") the
// quantized cells register as.

// DefaultBoardPowerW is the board power used to derive energy from kernel
// time when no explicit EnergyModel is registered (a V100's 300W TDP — a
// deliberately coarse "busy board" figure; the point of the model is
// relative tier comparison, not absolute joules).
const DefaultBoardPowerW = 300.0

// Int8PowerRatio is the default power scaling of the int8 tier relative
// to float32: int8 MACs and the narrower operand traffic draw less power
// per op, but control and memory overheads persist. 0.7 is a conservative
// literature-typical figure for int8 vs fp32 on the same silicon.
const Int8PowerRatio = 0.7

// EnergyModel prices one batched kernel invocation in nanojoules with the
// same affine-then-linear shape as Curve: E(b) = FixedNJ + PerRowNJ·b up
// to the Knee, then linear through the knee point.
type EnergyModel struct {
	// FixedNJ is the per-invocation energy floor (launch, weight traffic).
	FixedNJ float64
	// PerRowNJ is the marginal energy per batched row.
	PerRowNJ float64
	// Knee mirrors Curve.Knee; beyond it energy scales linearly with b.
	Knee int
}

// Energy returns the energy of one batched invocation of size b in
// nanojoules. It panics if b <= 0.
func (e EnergyModel) Energy(b int) float64 {
	if b <= 0 {
		panic(fmt.Sprintf("device: batch size %d", b))
	}
	if e.Knee <= 0 || b <= e.Knee {
		return e.FixedNJ + float64(b)*e.PerRowNJ
	}
	kneeE := e.FixedNJ + float64(e.Knee)*e.PerRowNJ
	return kneeE * float64(b) / float64(e.Knee)
}

// EnergyPerCell returns nanojoules per live row at batch size b — the
// energy-efficiency figure batching improves by amortizing FixedNJ.
func (e EnergyModel) EnergyPerCell(b int) float64 {
	return e.Energy(b) / float64(b)
}

// Scaled derives a tier's energy model from a measured kernel speedup and
// a power ratio: energy = power·time, so each coefficient scales by
// powerRatio/speedup. Both factors must be positive.
func (e EnergyModel) Scaled(speedup, powerRatio float64) EnergyModel {
	if speedup <= 0 || powerRatio <= 0 {
		panic("device: EnergyModel.Scaled requires positive speedup and power ratio")
	}
	f := powerRatio / speedup
	return EnergyModel{FixedNJ: e.FixedNJ * f, PerRowNJ: e.PerRowNJ * f, Knee: e.Knee}
}

// EnergyFromPower derives an energy model from a cost curve at a constant
// board power: nJ = W · ns.
func EnergyFromPower(c Curve, powerW float64) EnergyModel {
	return EnergyModel{
		FixedNJ:  powerW * float64(c.Fixed.Nanoseconds()),
		PerRowNJ: powerW * float64(c.PerRow.Nanoseconds()),
		Knee:     c.Knee,
	}
}

// Scaled derives a tier's cost curve from a measured kernel speedup:
// every time coefficient shrinks by the factor. It panics on
// non-positive speedups.
func (c Curve) Scaled(speedup float64) Curve {
	if speedup <= 0 {
		panic("device: Curve.Scaled requires a positive speedup")
	}
	return Curve{
		Fixed:  time.Duration(float64(c.Fixed) / speedup),
		PerRow: time.Duration(float64(c.PerRow) / speedup),
		Knee:   c.Knee,
	}
}

// SetEnergy registers the energy model for a cell type.
func (m *CostModel) SetEnergy(typeKey string, e EnergyModel) { m.energy[typeKey] = e }

// KernelEnergy returns the energy (nanojoules) of one batched kernel for
// a cell type. Types with a registered curve but no explicit energy model
// fall back to EnergyFromPower at DefaultBoardPowerW; unknown types panic
// like KernelTime.
func (m *CostModel) KernelEnergy(typeKey string, b int) float64 {
	if e, ok := m.energy[typeKey]; ok {
		return e.Energy(b)
	}
	c, ok := m.curves[typeKey]
	if !ok {
		panic(fmt.Sprintf("device: no cost curve for cell type %q", typeKey))
	}
	return EnergyFromPower(c, DefaultBoardPowerW).Energy(b)
}

// Energy returns the registered (or curve-derived) energy model.
func (m *CostModel) Energy(typeKey string) (EnergyModel, bool) {
	if e, ok := m.energy[typeKey]; ok {
		return e, true
	}
	if c, ok := m.curves[typeKey]; ok {
		return EnergyFromPower(c, DefaultBoardPowerW), true
	}
	return EnergyModel{}, false
}

// DeriveQuantTier registers tierKey as a derived execution tier of
// baseKey: kernel time scaled down by the measured speedup, energy scaled
// by speedup and powerRatio. The base must have a curve; its energy model
// (explicit or power-derived) seeds the tier's. This is how a measured
// BENCH "quantization" speedup becomes a priced tier the simulator can
// schedule against.
func (m *CostModel) DeriveQuantTier(baseKey, tierKey string, speedup, powerRatio float64) error {
	base, ok := m.curves[baseKey]
	if !ok {
		return fmt.Errorf("device: no cost curve for base type %q", baseKey)
	}
	if speedup <= 0 || powerRatio <= 0 {
		return fmt.Errorf("device: tier %q requires positive speedup and power ratio", tierKey)
	}
	m.curves[tierKey] = base.Scaled(speedup)
	baseE, _ := m.Energy(baseKey)
	m.energy[tierKey] = baseE.Scaled(speedup, powerRatio)
	return nil
}
