package tensor

// AVX implementations (axpy_amd64.s) of the Go loops of axpy.go, eight lanes
// at a time. VMULPS/VADDPS round each lane exactly as the scalar MULSS/ADDSS
// the compiler emits for the Go loops, and nothing is fused, so results are
// bit-identical to the reference. AVX is not in the GOAMD64=v1 baseline, so
// one probe at package init sets useAVX; each assembly entry point tests it
// and, where it is false, jumps to its Go loop, the code every other GOARCH
// runs. The assembly does no bounds checks: every other row must be at least
// as long as b (b0).

// useAVX is set once, by the probe; tests clear it to run the Go loops.
var useAVX = avxUsable()

// avxUsable reports whether the CPU has AVX (CPUID.1:ECX bit 28) and the OS
// saves the ymm registers across context switches: OSXSAVE (bit 27) makes
// XGETBV legal, and XCR0 bits 1 and 2 are the SSE and AVX state.
func avxUsable() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	if cpuid1ECX()&(osxsave|avx) != osxsave|avx {
		return false
	}
	return xgetbv0()&6 == 6
}

func cpuid1ECX() uint32

func xgetbv0() uint32

//go:noescape
func axpy1(o, b []float32, v float32)

//go:noescape
func axpy1x4(o, b0, b1, b2, b3 []float32, v0, v1, v2, v3 float32)

//go:noescape
func axpy4(o0, o1, o2, o3, b []float32, v0, v1, v2, v3 float32)
