package tensor

// matMulTile computes dst = init + a @ b, where init is zero (bias == nil) or
// the row-broadcast bias. It is the kernel behind every MatMul variant: rows
// of a are taken four at a time so one sweep of a row of b serves four output
// rows, and the remainder one at a time (matMulRow). Four paths, chosen once
// by CPUID: on AVX-512F, blockStrips holds a 4-row block's 64-column strip in
// registers across all of the block's terms (matMulBlocks), and rowStrips up
// to 256 output elements of a single row; elsewhere a block takes axpy4 per
// term and a single row four consecutive surviving terms per load and store
// of each output element (axpy1x4, then axpy1 for the last three or fewer),
// eight-lane AVX assembly on amd64 CPUs that have it (axpy_amd64.go) and the
// plain loops of axpy.go everywhere else.
//
// The float32 rounding sequence of every output element is fixed by this
// file alone — initialisation, then for p ascending one rounded multiply
// and one rounded add, with the zero skips below deciding which `+= 0*b`
// terms exist — and the assembly only widens the j loop and applies several
// existing terms in ascending p per visit of an element, so the result is
// bit-identical across all four paths. The conformance harness's oracle
// equivalence relies on this. Tiling the columns and cutting p into panels,
// as matMulBlocks and matMulRow do, is bit-identical too: an element between
// two panels is a stored float32, as it is between two terms. Regrouping rows
// (e.g. tiling m) would NOT be: the 4-row skip groups rows differently at
// block boundaries, which is visible with signed zeros, infinities and NaNs.
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
	blocked := m &^ 3 // rows in 4-row blocks
	if useAVX512 {
		matMulBlocks(dst, a, b, blocked, k, n)
	} else {
		for i := 0; i < blocked; i += 4 {
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
	}
	for i := blocked; i < m; i++ {
		matMulRow(dst[i*n:(i+1)*n], a[i*k:(i+1)*k], b)
	}
}

// matMulBlocks does dst[i] += a[i] @ b for the first rows rows (a multiple of
// four) on AVX-512F, a 4-row block at a time through blockStrips. p is cut
// into panels of whole rows of b, at most stripPanelBytes of them, in
// ascending order, and every block sweeps all n columns over one panel
// before any block starts the next: a panel is read from memory by the
// first block and from L2 by the others, so a batch reads each weight from
// memory once. A panel of whole rows is contiguous, so it spreads over every
// L2 set; a tile of columns is not, and at a 16 KiB row stride its rows fall
// into a few sets and evict each other. Every serving shape is one panel.
// The slicing bounds what the assembly reads.
func matMulBlocks(dst, a, b []float32, rows, k, n int) {
	if rows == 0 || n == 0 {
		return
	}
	panel := max(1, stripPanelBytes/(4*n))
	for p := 0; p < k; p += panel {
		q := min(p+panel, k)
		for i := 0; i < rows; i += 4 {
			blockStrips(dst[i*n:(i+4)*n], a[i*k+p:(i+3)*k+q], b[p*n:q*n], n, k, q-p)
		}
	}
}

// stripPanelBytes bounds the rows of b one rowStrips or blockStrips call
// sweeps, a quarter of a 2 MiB L2. A strip reads its columns of b a row at a
// time, one page or more apart, which the hardware prefetchers do not follow
// beyond L2; within a panel the first strip's misses pull in whole rows,
// which the panel's other strips, and the other blocks, then find in L2.
// Every serving shape is one panel.
const stripPanelBytes = 512 << 10

// matMulRow does o += arow @ b for one output row, where b has len(o) columns:
// all of b = 1 and the m mod 4 rows after matMulTile's blocks. A term exists iff
// arow[p] != 0 — a rule of its own, not the block's, which a row that ends up
// in the remainder must keep. The surviving terms are applied in ascending p,
// four at a time (axpy1x4) and the last three or fewer singly (axpy1), so
// each element of o sees exactly the operations of one axpy1 per term. On
// AVX-512F, rowStrips applies them all, a register strip of o at a time, one
// panel of rows of b after another; the slicing of b bounds what the assembly
// reads.
func matMulRow(o, arow, b []float32) {
	n := len(o)
	if useAVX512 {
		rows := max(1, stripPanelBytes/(4*max(n, 1)))
		for p := 0; p < len(arow); p += rows {
			q := min(p+rows, len(arow))
			rowStrips(o, arow[p:q], b[p*n:q*n])
		}
		return
	}
	var pend [4]int // surviving p not yet applied, ascending
	np := 0
	for p, av := range arow {
		if av == 0 {
			continue
		}
		pend[np] = p
		np++
		if np == 4 {
			p0, p1, p2, p3 := pend[0], pend[1], pend[2], p
			axpy1x4(o, b[p0*n:(p0+1)*n], b[p1*n:(p1+1)*n], b[p2*n:(p2+1)*n], b[p3*n:(p3+1)*n],
				arow[p0], arow[p1], arow[p2], av)
			np = 0
		}
	}
	for _, p := range pend[:np] {
		axpy1(o, b[p*n:(p+1)*n], arow[p])
	}
}
