//go:build !amd64

package tensor

func axpy1(o, b []float32, v float32) { axpy1Go(o, b, v) }

func axpy1x4(o, b0, b1, b2, b3 []float32, v0, v1, v2, v3 float32) {
	axpy1x4Go(o, b0, b1, b2, b3, v0, v1, v2, v3)
}

func axpy4(o0, o1, o2, o3, b []float32, v0, v1, v2, v3 float32) {
	axpy4Go(o0, o1, o2, o3, b, v0, v1, v2, v3)
}

// useAVX512 is false off amd64, so neither strip routine is ever called.
const useAVX512 = false

func rowStrips(o, arow, b []float32) { panic("tensor: rowStrips without AVX-512") }

func blockStrips(o, a, b []float32, n, k, terms int) {
	panic("tensor: blockStrips without AVX-512")
}
