package tensor

// matMulTile computes dst = init + a @ b, where init is zero (bias == nil) or
// the row-broadcast bias. It is the kernel behind every MatMul variant: rows
// of a are taken four at a time so one sweep of a row of b serves four output
// rows (axpy4), and the remainder one at a time (axpy1). The two primitives
// are SSE2 assembly on amd64 and the plain loops of axpy.go elsewhere.
//
// The float32 rounding sequence of every output element is fixed by this
// function alone — initialisation, then for p ascending one rounded multiply
// and one rounded add, with the zero skips below deciding which `+= 0*b`
// terms exist — and the primitives only widen the j loop, so the result is
// bit-identical across both implementations. The conformance harness's
// oracle equivalence relies on this. Regrouping rows (e.g. tiling m) would
// NOT be bit-identical: the 4-row skip groups rows differently at block
// boundaries, which is visible with signed zeros, infinities and NaNs.
func matMulTile(dst, a, b, bias []float32, m, k, n int) {
	for i := 0; i < m; i++ {
		row := dst[i*n : (i+1)*n]
		if bias == nil {
			for j := range row {
				row[j] = 0
			}
		} else {
			copy(row, bias)
		}
	}
	i := 0
	for ; i+4 <= m; i += 4 {
		a0 := a[(i+0)*k : (i+1)*k]
		a1 := a[(i+1)*k : (i+2)*k]
		a2 := a[(i+2)*k : (i+3)*k]
		a3 := a[(i+3)*k : (i+4)*k]
		o0 := dst[(i+0)*n : (i+1)*n]
		o1 := dst[(i+1)*n : (i+2)*n]
		o2 := dst[(i+2)*n : (i+3)*n]
		o3 := dst[(i+3)*n : (i+4)*n]
		for p := 0; p < k; p++ {
			v0, v1, v2, v3 := a0[p], a1[p], a2[p], a3[p]
			if v0 == 0 && v1 == 0 && v2 == 0 && v3 == 0 {
				// Whole block skips: keeps one-hot embedding rows cheap.
				continue
			}
			axpy4(o0, o1, o2, o3, b[p*n:(p+1)*n], v0, v1, v2, v3)
		}
	}
	for ; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		orow := dst[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			axpy1(orow, b[p*n:(p+1)*n], av)
		}
	}
}
