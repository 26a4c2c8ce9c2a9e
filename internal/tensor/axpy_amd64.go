package tensor

// SSE2 implementations (axpy_amd64.s) of axpy1Go and axpy4Go. SSE2 is part of
// the GOAMD64=v1 baseline, so there is no feature probe and no fallback on
// amd64. MULPS/ADDPS round each lane exactly as the scalar MULSS/ADDSS the
// compiler emits for the Go loops, and nothing is fused, so results are
// bit-identical to the reference. The assembly does no bounds checks: every
// output row must be at least len(b) long.

//go:noescape
func axpy1(o, b []float32, v float32)

//go:noescape
func axpy4(o0, o1, o2, o3, b []float32, v0, v1, v2, v3 float32)
