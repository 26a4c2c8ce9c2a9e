package tensor

import "testing"

// forEachKernel runs f on each path of the matmul primitives this machine
// can take: the AVX assembly, where the probe chose it, and the Go loops,
// with useAVX cleared for the subtest and restored after it.
func forEachKernel(t *testing.T, f func(t *testing.T)) {
	if useAVX {
		t.Run("avx", f)
	}
	t.Run("go", func(t *testing.T) {
		saved := useAVX
		useAVX = false
		defer func() { useAVX = saved }()
		f(t)
	})
}

// TestKernelPath records in the test log which path the probe chose, so a CI
// log says whether the assembly was tested.
func TestKernelPath(t *testing.T) {
	if useAVX {
		t.Log("matmul primitives: AVX assembly (axpy_amd64.s) and, in forEachKernel tests, the Go loops")
	} else {
		t.Log("matmul primitives: Go loops only (the probe found no usable AVX)")
	}
}
