package tensor

// The float32 activations every cell's gate sweep runs: one definition,
// Tanh32, and Sigmoid32 built on it. Tanh32 is Eigen's 13/6 rational
// approximation — an odd degree-13 polynomial over an even degree-6 one,
// clamped to ±tanhClamp — with absolute error below 5e-7 against float64
// tanh. TanhSlice and SigmoidSlice are the same functions over slices; on
// amd64 their four-lane main loop is SSE2 assembly (act_amd64.s) whose every
// lane returns exactly what the scalar function returns for that input, so an
// element's value never depends on where it falls in a slice.
//
// Each multiply and each add below is rounded separately: the explicit
// float32 conversions forbid the compiler to fuse a multiply into the
// following add (FMA), which the assembly does not do either.

// tanhClamp bounds Tanh32's argument; the approximation reaches ±1 there.
const tanhClamp float32 = 7.90531110763549805

// Numerator (odd) and denominator (even) coefficients of Tanh32.
const (
	tanhA1  float32 = 4.89352455891786e-03
	tanhA3  float32 = 6.37261928875436e-04
	tanhA5  float32 = 1.48572235717979e-05
	tanhA7  float32 = 5.12229709037114e-08
	tanhA9  float32 = -8.60467152213735e-11
	tanhA11 float32 = 2.00018790482477e-13
	tanhA13 float32 = -2.76076847742355e-16

	tanhB0 float32 = 4.89352518554385e-03
	tanhB2 float32 = 2.26843463243900e-03
	tanhB4 float32 = 1.18534705686654e-04
	tanhB6 float32 = 1.19825839466702e-06
)

// Tanh32 is the float32 hyperbolic tangent of every cell: clamp x to
// ±tanhClamp (NaN passes through), square it once, evaluate the numerator by
// Horner in x² and multiply by x, evaluate the denominator by Horner in x²,
// divide. It is odd bit for bit, maps ±Inf to ±1 and NaN to NaN.
func Tanh32(x float32) float32 {
	// The two comparisons are MINPS(clamp, x) and MAXPS(-clamp, x): both
	// false for NaN, which is therefore kept.
	if tanhClamp < x {
		x = tanhClamp
	}
	if -tanhClamp > x {
		x = -tanhClamp
	}
	x2 := float32(x * x)
	p := float32(x2*tanhA13) + tanhA11
	p = float32(x2*p) + tanhA9
	p = float32(x2*p) + tanhA7
	p = float32(x2*p) + tanhA5
	p = float32(x2*p) + tanhA3
	p = float32(x2*p) + tanhA1
	p = float32(p * x)
	q := float32(x2*tanhB6) + tanhB4
	q = float32(x2*q) + tanhB2
	q = float32(x2*q) + tanhB0
	return p / q
}

// Sigmoid32 is the float32 logistic function of every cell,
// 0.5 + 0.5·Tanh32(0.5·x): ±Inf map to 1 and 0, NaN to NaN.
func Sigmoid32(x float32) float32 {
	return float32(0.5*Tanh32(float32(0.5*x))) + 0.5
}

// TanhSlice sets dst[i] = Tanh32(src[i]) for every i of src. dst must be at
// least as long as src; it may be src itself, but must not overlap it
// otherwise.
func TanhSlice(dst, src []float32) {
	dst = dst[:len(src)]
	n := len(src) &^ 3
	tanhLanes(dst[:n], src[:n])
	tanhGo(dst[n:], src[n:])
}

// SigmoidSlice sets dst[i] = Sigmoid32(src[i]) for every i of src, with
// TanhSlice's rules for dst.
func SigmoidSlice(dst, src []float32) {
	dst = dst[:len(src)]
	n := len(src) &^ 3
	sigmoidLanes(dst[:n], src[:n])
	sigmoidGo(dst[n:], src[n:])
}

// tanhGo and sigmoidGo are the slice loops in plain Go: the tail of every
// slice, the whole slice on GOARCHes without assembly (act_other.go), and
// what the tests hold the assembly to.
func tanhGo(dst, src []float32) {
	for i, v := range src {
		dst[i] = Tanh32(v)
	}
}

func sigmoidGo(dst, src []float32) {
	for i, v := range src {
		dst[i] = Sigmoid32(v)
	}
}
