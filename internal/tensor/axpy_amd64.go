package tensor

// SSE2 implementations (axpy_amd64.s) of the Go loops of axpy.go. SSE2 is part
// of the GOAMD64=v1 baseline, so there is no feature probe and no fallback on
// amd64. MULPS/ADDPS round each lane exactly as the scalar MULSS/ADDSS the
// compiler emits for the Go loops, and nothing is fused, so results are
// bit-identical to the reference. The assembly does no bounds checks: every
// other row must be at least as long as b (b0).

//go:noescape
func axpy1(o, b []float32, v float32)

//go:noescape
func axpy1x4(o, b0, b1, b2, b3 []float32, v0, v1, v2, v3 float32)

//go:noescape
func axpy4(o0, o1, o2, o3, b []float32, v0, v1, v2, v3 float32)
