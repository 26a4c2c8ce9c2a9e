package tensor

import "testing"

// forEachKernel runs f on each path of the matmul kernel this machine can
// take: the AVX-512 block and row strips, where the probes chose them, then
// the AVX primitives alone (useAVX512 cleared), then the Go loops (both
// cleared). Flags are cleared for the subtest and restored after it.
func forEachKernel(t *testing.T, f func(t *testing.T)) {
	with := func(avx512, avx bool) func(t *testing.T) {
		return func(t *testing.T) {
			saved512, saved := useAVX512, useAVX
			useAVX512, useAVX = avx512, avx
			defer func() { useAVX512, useAVX = saved512, saved }()
			f(t)
		}
	}
	if useAVX512 {
		t.Run("avx512", with(true, true))
	}
	if useAVX {
		t.Run("avx", with(false, true))
	}
	t.Run("go", with(false, false))
}

// TestKernelPath records in the test log which path the probes chose, so a
// CI log says whether the assembly was tested, and on which path.
func TestKernelPath(t *testing.T) {
	switch {
	case useAVX512:
		t.Log("matmul kernel: AVX-512 block strips (blockstrips_amd64.s) for 4-row blocks, AVX-512 row strips (rowstrips_amd64.s) for single rows; forEachKernel tests also run the AVX-only and Go paths")
	case useAVX:
		t.Log("matmul kernel: AVX primitives (axpy_amd64.s) for 4-row blocks and single rows; the probe found no usable AVX-512, so the block strips and row strips are NOT tested here; forEachKernel tests also run the Go loops")
	default:
		t.Log("matmul kernel: Go loops only (the probe found no usable AVX); NO assembly is tested here")
	}
}
