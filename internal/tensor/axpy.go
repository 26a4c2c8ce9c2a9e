package tensor

// axpy1Go and axpy4Go are matMulTile's inner loops in plain Go. They are the
// implementation on every GOARCH without an assembly one (axpy_other.go) and
// the reference the amd64 tests hold the assembly to, bit for bit.

// axpy1Go computes o[j] += v*b[j] for every j in range of b; len(o) must be
// at least len(b).
func axpy1Go(o, b []float32, v float32) {
	for j, bv := range b {
		o[j] += v * bv
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
