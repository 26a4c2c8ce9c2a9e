// Package leakcheck is the per-package goroutine-leak gate: a package's
// TestMain hands its *testing.M to Main, which fails the run if the tests
// leave more goroutines behind than they found.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// Main runs the package's tests and exits with their status. After a
// passing run it waits up to 2 s for the goroutine count to return to its
// value before the run; if it stays higher, Main prints every goroutine's
// stack and exits 1.
func Main(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			fmt.Fprintf(os.Stderr, "leakcheck: %d goroutines after the tests, %d before them\n%s\n", n, before, buf)
			code = 1
		}
	}
	os.Exit(code)
}
