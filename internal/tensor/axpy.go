package tensor

// axpy1Go, axpy1x4Go and axpy4Go are matMulTile's inner loops in plain Go.
// They are the implementation on every GOARCH without an assembly one
// (axpy_other.go) and on amd64 CPUs without AVX (axpy_amd64.s jumps here),
// and the reference the amd64 tests hold the assembly to, bit for bit.

// axpy1Go computes o[j] += v*b[j] for every j in range of b; len(o) must be
// at least len(b).
func axpy1Go(o, b []float32, v float32) {
	for j, bv := range b {
		o[j] += v * bv
	}
}

// axpy1x4Go is four axpy1Go calls on one output row — b0 first, b3 last — with
// each o[j] loaded once and stored once. Every element still sees four
// separately rounded multiplies and four separately rounded adds in that
// order. o and b1..b3 must be at least len(b0) long.
func axpy1x4Go(o, b0, b1, b2, b3 []float32, v0, v1, v2, v3 float32) {
	for j, bv := range b0 {
		s := o[j]
		s += v0 * bv
		s += v1 * b1[j]
		s += v2 * b2[j]
		s += v3 * b3[j]
		o[j] = s
	}
}

// axpy4Go is axpy1Go for four output rows sharing each load of b.
func axpy4Go(o0, o1, o2, o3, b []float32, v0, v1, v2, v3 float32) {
	for j, bv := range b {
		o0[j] += v0 * bv
		o1[j] += v1 * bv
		o2[j] += v2 * bv
		o3[j] += v3 * bv
	}
}
