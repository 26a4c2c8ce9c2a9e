package tensor

// AVX implementations (axpy_amd64.s) of the Go loops of axpy.go, eight lanes
// at a time, and on AVX-512F CPUs two routines that do a whole product in
// sixteen-lane register strips: rowStrips (rowstrips_amd64.s) for a single
// row and blockStrips (blockstrips_amd64.s) for a 4-row block. So matMulTile
// has four paths: the two strip routines on AVX-512F; axpy4 for blocks and
// axpy1x4/axpy1 for single rows on AVX; the Go loops elsewhere.
// VMULPS/VADDPS round each lane exactly as the scalar MULSS/ADDSS the
// compiler emits for the Go loops, and nothing is fused, so results are
// bit-identical to the reference. Neither AVX nor AVX-512 is in the
// GOAMD64=v1 baseline, so probes at package init set useAVX and useAVX512;
// each axpy entry point tests useAVX and, where it is false, jumps to its Go
// loop, the code every other GOARCH runs, and matMulTile and matMulRow call
// the strip routines only under useAVX512. The assembly does no bounds
// checks: every other row must be at least as long as b (b0), and the strip
// routines read what their callers slice.

// useAVX and useAVX512 are set once, by the probes; tests clear them to run
// the slower paths. useAVX512 implies useAVX.
var (
	useAVX    = avxUsable()
	useAVX512 = useAVX && avx512Usable()
)

// avxUsable reports whether the CPU has AVX (CPUID.1:ECX bit 28) and the OS
// saves the ymm registers across context switches: OSXSAVE (bit 27) makes
// XGETBV legal, and XCR0 bits 1 and 2 are the SSE and AVX state.
func avxUsable() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	return xgetbv0()&6 == 6
}

// avx512Usable reports, once avxUsable has, whether the CPU has AVX-512F
// (CPUID.7.0:EBX bit 16, where leaf 7 exists) and the OS saves the opmask
// and zmm registers too: XCR0 bits 5, 6 and 7 beside the SSE and AVX bits.
func avx512Usable() bool {
	const avx512f = 1 << 16
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, ebx, _, _ := cpuid(7, 0); ebx&avx512f == 0 {
		return false
	}
	return xgetbv0()&0xe6 == 0xe6
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() uint32

//go:noescape
func axpy1(o, b []float32, v float32)

//go:noescape
func axpy1x4(o, b0, b1, b2, b3 []float32, v0, v1, v2, v3 float32)

//go:noescape
func axpy4(o0, o1, o2, o3, b []float32, v0, v1, v2, v3 float32)

// rowStrips is o += arow @ b on AVX-512F (rowstrips_amd64.s), for useAVX512
// only; b must hold at least len(arow)*len(o) floats.
//
//go:noescape
func rowStrips(o, arow, b []float32)

// blockStrips is o[r] += a[r] @ b for the four rows r of a block on AVX-512F
// (blockstrips_amd64.s), for useAVX512 only: o holds four rows of n floats,
// a four rows k floats apart from a panel's first term, and b the panel's
// terms rows of n floats.
//
//go:noescape
func blockStrips(o, a, b []float32, n, k, terms int)
