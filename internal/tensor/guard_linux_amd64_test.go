package tensor

import (
	"math"
	"math/rand"
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"
)

// guardedFloats maps n floats that end flush against a PROT_NONE page, so a
// load or store past their end faults instead of reading a neighbour's
// memory; release unmaps them.
func guardedFloats(t *testing.T, n int) (s []float32, release func()) {
	t.Helper()
	page := syscall.Getpagesize()
	size := (4*n+page-1)/page*page + page
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	if err := syscall.Mprotect(mem[size-page:], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect: %v", err)
	}
	end := size - page
	s = unsafe.Slice((*float32)(unsafe.Pointer(&mem[end-4*n])), n)
	return s, func() { _ = syscall.Munmap(mem) }
}

// TestMatMulGuardPage ends the output, the last row of b and the last row of
// a flush against a guard page, for every n up to 48 — every masked tail of
// the AVX-512 strips and every 8-, 4- and 1-float tail of the AVX
// primitives — and for n past one and two 64-float block strips, with and
// without a masked tail, at several k: in a single row, in a 4-row block
// alone and in two of them (the block's o, a and b all end at the guard),
// and in a row after a block. The assembly does no bounds checks, so an
// unmasked access past a slice's end would pass silently on ordinary heap
// memory; here it faults, and the fault is turned into a test failure. It
// runs on every kernel path.
func TestMatMulGuardPage(t *testing.T) {
	forEachKernel(t, testMatMulGuardPage)
}

func testMatMulGuardPage(t *testing.T) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	rng := rand.New(rand.NewSource(5))
	var ns []int
	for n := 1; n <= 48; n++ {
		ns = append(ns, n)
	}
	ns = append(ns, 63, 64, 65, 79, 128, 129)
	for _, n := range ns {
		for _, k := range []int{1, 2, 5, 17} {
			for _, m := range []int{1, 4, 5, 8} {
				a, freeA := guardedFloats(t, m*k)
				b, freeB := guardedFloats(t, k*n)
				got, freeGot := guardedFloats(t, m*n)
				want := make([]float32, m*n)
				fillMatrix(rng, a)
				fillMatrix(rng, b)
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("m=%d k=%d n=%d: kernel touched memory past a slice's end: %v", m, k, n, r)
						}
					}()
					matMulTile(got, a, b, nil, m, k, n)
				}()
				scalarMatMulRef(want, a, b, nil, m, k, n)
				for i := range want {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("m=%d k=%d n=%d: got[%d]=%x want %x", m, k, n, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
					}
				}
				freeA()
				freeB()
				freeGot()
			}
		}
	}
}
