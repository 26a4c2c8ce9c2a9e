//go:build !amd64

package tensor

import (
	"runtime"
	"testing"
)

// forEachKernel runs f on the one path there is: the Go loops.
func forEachKernel(t *testing.T, f func(t *testing.T)) {
	t.Run("go", f)
}

// TestKernelPath records in the test log which path the primitives take.
func TestKernelPath(t *testing.T) {
	t.Log("matmul primitives: Go loops only (no assembly on " + runtime.GOARCH + ")")
}
