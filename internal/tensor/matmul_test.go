package tensor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// fillMatrix populates data with a mix of ordinary values, exact zeros (to
// exercise the kernel's zero-skip), and denormal-scale magnitudes whose
// rounding is order-sensitive — the inputs most likely to betray a kernel
// that reorders float accumulation.
func fillMatrix(rng *rand.Rand, data []float32) {
	for i := range data {
		switch rng.Intn(8) {
		case 0:
			data[i] = 0
		case 1:
			data[i] = float32(math.Copysign(0, -1)) // negative zero
		case 2:
			data[i] = float32(rng.NormFloat64()) * 1e-20
		default:
			data[i] = float32(rng.NormFloat64())
		}
	}
}

// scalarMatMulRef is the pure-Go kernel this package shipped before the
// vector primitives, kept verbatim (minus column tiling) as the bit-level
// reference: the 4-row blocks, both zero skips and the p-ascending
// multiply-then-add per element are what matMulTile must reproduce.
func scalarMatMulRef(dst, a, b, bias []float32, m, k, n int) {
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
				continue
			}
			brow := b[p*n : (p+1)*n]
			for j, bv := range brow {
				o0[j] += v0 * bv
				o1[j] += v1 * bv
				o2[j] += v2 * bv
				o3[j] += v3 * bv
			}
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
			brow := b[p*n : (p+1)*n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// offsetSlice returns a length-n slice starting off floats into a fresh
// allocation, so its base address is 4*off bytes past the allocator's
// alignment and the vector loads and stores on it are unaligned.
func offsetSlice(n, off int) []float32 {
	return make([]float32, off+n)[off:]
}

// TestMatMulTileBitIdentical is the conformance-critical property test: the
// kernel built on the vector primitives must produce byte-for-byte the output
// of the scalar kernel for every shape — every 4-row block remainder, every
// vector tail length, with and without bias, on unaligned operands, and on
// the inputs (signed and exact zeros, denormals) that betray a reordered or
// fused float accumulation. It runs on every kernel path (forEachKernel).
func TestMatMulTileBitIdentical(t *testing.T) {
	forEachKernel(t, testMatMulTileBitIdentical)
}

func testMatMulTileBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ks := []int{1, 3, 4, 5, 64, 65}
	// Vector tails, then the row strips' boundaries: a 128-float sub-strip
	// alone, with 1 masked float, 240 = every sub-strip, 255 = every one
	// plus 15 masked, one full 256-float strip with and without a rest.
	ns := []int{1, 3, 4, 5, 7, 8, 15, 16, 17, 31, 33, 64, 65,
		127, 128, 129, 240, 255, 256, 257, 511, 512, 513, 1000}
	for m := 1; m <= 9; m++ {
		for _, k := range ks {
			for _, n := range ns {
				for off := 0; off < 4; off++ {
					a := offsetSlice(m*k, off)
					b := offsetSlice(k*n, off)
					bias := offsetSlice(n, (off+1)%4)
					got := offsetSlice(m*n, 3-off)
					want := make([]float32, m*n)
					fillMatrix(rng, a)
					fillMatrix(rng, b)
					fillMatrix(rng, bias)
					for _, bs := range [][]float32{nil, bias} {
						scalarMatMulRef(want, a, b, bs, m, k, n)
						matMulTile(got, a, b, bs, m, k, n)
						for i := range want {
							if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
								t.Fatalf("m=%d k=%d n=%d off=%d bias=%v: got[%d]=%x want %x",
									m, k, n, off, bs != nil, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
							}
						}
					}
				}
			}
		}
	}
}

// TestMatMulTileBitIdenticalSparseRows aims the same comparison at the
// regrouping of p: every row of a shares one zero mask (so both skips skip
// exactly the masked p, whatever m is) whose surviving-term count is every
// value 0..9 — full axpy1x4 groups, gathered ones and every axpy1 tail in
// single rows, the same terms one by one in blocks — with the zeros at the
// start, in the middle, at the end and interleaved. The rows of b at masked
// p hold ±Inf and NaN: a term that is wrongly included turns the whole output
// row into NaN — at n = 257 and 511 also a full 256-float register strip, every
// smaller sub-strip and the masked one.
func TestMatMulTileBitIdenticalSparseRows(t *testing.T) {
	forEachKernel(t, testMatMulTileBitIdenticalSparseRows)
}

func testMatMulTileBitIdenticalSparseRows(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	negZero := float32(math.Copysign(0, -1))
	poison := []float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}
	var masks [][]bool // true = the term survives
	for c := 0; c <= 9; c++ {
		for _, z := range []int{0, 1, 2, 5} {
			if c+z == 0 {
				continue
			}
			for _, lead := range []int{0, c / 2, c} { // survivors before the zeros
				mask := make([]bool, c+z)
				for p := range mask {
					mask[p] = p < lead || p >= lead+z
				}
				masks = append(masks, mask)
			}
		}
		alt := make([]bool, 2*c+1) // zero, survivor, zero, ...
		for p := range alt {
			alt[p] = p%2 == 1
		}
		masks = append(masks, alt)
	}
	for _, mask := range masks {
		k := len(mask)
		for _, m := range []int{1, 2, 3, 4, 5, 7, 8} {
			for _, n := range []int{1, 4, 7, 16, 35, 257, 511} {
				a := offsetSlice(m*k, 1)
				b := offsetSlice(k*n, 2)
				bias := offsetSlice(n, 3)
				got := offsetSlice(m*n, 1)
				want := make([]float32, m*n)
				fillMatrix(rng, b)
				fillMatrix(rng, bias)
				for p, live := range mask {
					for i := 0; i < m; i++ {
						v := &a[i*k+p]
						switch {
						case live:
							for *v == 0 {
								*v = float32(rng.NormFloat64())
							}
						case rng.Intn(2) == 0:
							*v = negZero
						}
					}
					if !live {
						for j := 0; j < n; j++ {
							b[p*n+j] = poison[rng.Intn(len(poison))]
						}
					}
				}
				for _, bs := range [][]float32{nil, bias} {
					scalarMatMulRef(want, a, b, bs, m, k, n)
					matMulTile(got, a, b, bs, m, k, n)
					for i := range want {
						if want[i] != want[i] {
							t.Fatalf("mask=%v m=%d n=%d: reference is NaN at %d; the test is wrong", mask, m, n, i)
						}
						if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
							t.Fatalf("mask=%v m=%d n=%d bias=%v: got[%d]=%x want %x",
								mask, m, n, bs != nil, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
						}
					}
				}
			}
		}
	}
}

// TestMatMulTileBitIdenticalBlocks aims the comparison at the 4-row blocks:
// m from one block to eight blocks plus a remainder, n across the 64- and
// 16-float strips and the masked tail, and the rows of a where the block's
// skip rule differs from a per-row one — one-hot rows, where most terms skip
// in the whole block, and blocks where some rows are all ±0 and the others
// are not, so their terms exist for the zero rows too — against a bias of
// ±0, where a per-row rule would leave a −0 that the block's `+= 0*b` turns
// into +0. It runs on every kernel path.
func TestMatMulTileBitIdenticalBlocks(t *testing.T) {
	forEachKernel(t, testMatMulTileBitIdenticalBlocks)
}

func testMatMulTileBitIdenticalBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	negZero := float32(math.Copysign(0, -1))
	signedZero := func() float32 {
		if rng.Intn(2) == 0 {
			return negZero
		}
		return 0
	}
	patterns := []struct {
		name string
		fill func(a []float32, m, k int)
	}{
		{"random", func(a []float32, m, k int) { fillMatrix(rng, a) }},
		{"one-hot", func(a []float32, m, k int) {
			for i := range a {
				a[i] = signedZero()
			}
			for i := 0; i < m; i++ {
				a[i*k+rng.Intn(k)] = 1
			}
		}},
		{"zero rows", func(a []float32, m, k int) {
			fillMatrix(rng, a)
			for i0 := 0; i0 < m; i0 += 4 {
				zero := 1 + rng.Intn(14) // some but not all rows of the block
				for i := i0; i < min(i0+4, m); i++ {
					if zero>>(i-i0)&1 == 1 {
						for p := range a[i*k : (i+1)*k] {
							a[i*k+p] = signedZero()
						}
					}
				}
			}
		}},
	}
	for _, m := range []int{4, 5, 7, 8, 16, 17, 33} {
		for _, k := range []int{1, 5, 64, 65} {
			for _, n := range []int{1, 15, 16, 17, 63, 64, 65, 1000} {
				for _, pat := range patterns {
					a := offsetSlice(m*k, 1)
					b := offsetSlice(k*n, 2)
					zeros := offsetSlice(n, 3)
					bias := offsetSlice(n, 0)
					got := offsetSlice(m*n, 1)
					want := make([]float32, m*n)
					pat.fill(a, m, k)
					fillMatrix(rng, b)
					fillMatrix(rng, bias)
					for j := range zeros {
						zeros[j] = signedZero()
					}
					for _, bs := range [][]float32{nil, zeros, bias} {
						scalarMatMulRef(want, a, b, bs, m, k, n)
						matMulTile(got, a, b, bs, m, k, n)
						for i := range want {
							if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
								t.Fatalf("%s m=%d k=%d n=%d bias=%v: got[%d]=%x want %x",
									pat.name, m, k, n, bs != nil, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
							}
						}
					}
				}
			}
		}
	}
}

// checkAxpy runs axpy1, axpy1x4 and axpy4 against their Go references on rows
// of length n, with the four scalars given as raw bits. offs places the
// operands in their allocations, in floats: offs[0] the output row (row r of
// axpy4 sits at offs[0]+r), offs[1..4] the rows b0..b3 of axpy1x4 (b0 is the b
// of axpy1 and axpy4), so every operand's 32-byte misalignment is chosen
// independently. Elements must agree bit for bit, except that where the
// reference yields NaN any NaN will do (payload propagation depends on
// operand order, which the Go compiler is free to choose). Guard floats on
// both sides of every output row catch a primitive that strays outside it.
func checkAxpy(t *testing.T, seed int64, n int, offs [5]int, vbits [4]uint32) {
	t.Helper()
	const guard = 4
	rng := rand.New(rand.NewSource(seed))
	var v [4]float32
	var b, got, want [4][]float32
	for r := range got {
		v[r] = math.Float32frombits(vbits[r])
		b[r] = offsetSlice(n, offs[1+r]%8)
		fillMatrix(rng, b[r])
		got[r] = offsetSlice(n+2*guard, (offs[0]+r)%8)
		fillMatrix(rng, got[r])
		want[r] = append([]float32(nil), got[r]...)
	}
	row := func(s []float32) []float32 { return s[guard : guard+n] }
	same := func(name string, row int, got, want []float32) {
		t.Helper()
		for i, w := range want {
			g := got[i]
			if w != w && g != g {
				continue
			}
			if math.Float32bits(g) != math.Float32bits(w) {
				t.Fatalf("%s n=%d offs=%v v=%x row %d: [%d]=%x want %x (row spans [%d,%d))",
					name, n, offs, vbits, row, i, math.Float32bits(g), math.Float32bits(w), guard, guard+n)
			}
		}
	}
	axpy1Go(row(want[0]), b[0], v[0])
	axpy1(row(got[0]), b[0], v[0])
	same("axpy1", 0, got[0], want[0])

	// axpy1x4 against its reference, and the reference against what it
	// stands for in matMulRow: four axpy1Go calls, b0 first.
	chain := append([]float32(nil), want[0]...)
	for r := range b {
		axpy1Go(row(chain), b[r], v[r])
	}
	axpy1x4Go(row(want[0]), b[0], b[1], b[2], b[3], v[0], v[1], v[2], v[3])
	axpy1x4(row(got[0]), b[0], b[1], b[2], b[3], v[0], v[1], v[2], v[3])
	same("axpy1x4", 0, got[0], want[0])
	same("axpy1x4Go vs 4 x axpy1Go", 0, want[0], chain)

	axpy4Go(row(want[0]), row(want[1]), row(want[2]), row(want[3]), b[0], v[0], v[1], v[2], v[3])
	axpy4(row(got[0]), row(got[1]), row(got[2]), row(got[3]), b[0], v[0], v[1], v[2], v[3])
	for r := range got {
		same("axpy4", r, got[r], want[r])
	}
}

// axpyOffsets decodes five base-8 digits: one misalignment per operand of
// checkAxpy.
func axpyOffsets(code int) (offs [5]int) {
	for i := range offs {
		offs[i] = code % 8
		code /= 8
	}
	return offs
}

// TestAxpyEveryTail drives the primitives directly through every combination
// of main loop (32 floats, 16 for axpy4) and 8-, 4- and 1-float tails — two
// main iterations and every tail up to n = 79 — with each operand in turn at
// every 32-byte misalignment while the others keep theirs (FuzzAxpy mixes
// them freely). It runs on every kernel path (forEachKernel); on the Go path
// it pins the dispatch, which must reach the loops it is compared with.
func TestAxpyEveryTail(t *testing.T) {
	forEachKernel(t, testAxpyEveryTail)
}

func testAxpyEveryTail(t *testing.T) {
	vbits := [4]uint32{
		math.Float32bits(1.5), math.Float32bits(-0.3),
		math.Float32bits(1e-20), 0x80000000, // denormal products, -0
	}
	for n := 0; n <= 79; n++ {
		for op := 0; op < 5; op++ {
			for off := 0; off < 8; off++ {
				offs := [5]int{n, n + 1, n + 2, n + 3, n + 1}
				offs[op] = off
				checkAxpy(t, int64(n), n, offs, vbits)
			}
		}
	}
}

// FuzzAxpy holds the primitives to their Go references on arbitrary scalar
// bit patterns, including the NaN and ±Inf scalars of the seed corpus.
func FuzzAxpy(f *testing.F) {
	const nan, pinf, ninf = 0x7fc00001, 0x7f800000, 0xff800000
	one := math.Float32bits(1)
	f.Add(int64(1), uint16(0), uint16(0), one, one, one, one)
	f.Add(int64(2), uint16(17), uint16(0x1b1), one, uint32(0), uint32(0x80000000), uint32(1))
	f.Add(int64(3), uint16(35), uint16(0x2e4), uint32(nan), one, one, one)
	f.Add(int64(4), uint16(64), uint16(0x3ff), uint32(pinf), uint32(ninf), uint32(nan), one)
	f.Add(int64(5), uint16(1000), uint16(0x06c), uint32(ninf), uint32(0x00000001), uint32(0x7f7fffff), uint32(0xff7fffff))
	f.Add(int64(6), uint16(83), uint16(0x139), one, uint32(pinf), one, uint32(nan))
	f.Add(int64(7), uint16(47), uint16(0x5e3f), one, uint32(0x80000000), uint32(0x00000001), one)
	f.Add(int64(8), uint16(79), uint16(0x7fff), uint32(0xbfc00000), one, uint32(nan), uint32(ninf))
	f.Fuzz(func(t *testing.T, seed int64, n, offs uint16, v0, v1, v2, v3 uint32) {
		checkAxpy(t, seed, int(n%2048), axpyOffsets(int(offs)), [4]uint32{v0, v1, v2, v3})
	})
}

// TestMatMulRowPanels aims the comparison at the panels matMulRow and
// matMulBlocks sweep b in: k one below, at and above a panel's rows, and
// across several panels, with exact zeros (a skipped term on either side of
// an edge) and unaligned operands, for a single row, a block and a row, and
// two blocks. It runs on every kernel path.
func TestMatMulRowPanels(t *testing.T) {
	forEachKernel(t, testMatMulRowPanels)
}

func testMatMulRowPanels(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, n := range []int{1000, 2048, 4097} {
		rows := stripPanelBytes / (4 * n)
		for _, k := range []int{rows - 1, rows, rows + 1, 3*rows + 5} {
			for _, m := range []int{1, 5, 8} {
				a := offsetSlice(m*k, 1)
				b := offsetSlice(k*n, 2)
				bias := offsetSlice(n, 3)
				got := offsetSlice(m*n, 1)
				want := make([]float32, m*n)
				fillMatrix(rng, a)
				fillMatrix(rng, b)
				fillMatrix(rng, bias)
				scalarMatMulRef(want, a, b, bias, m, k, n)
				matMulTile(got, a, b, bias, m, k, n)
				for j := range want {
					if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
						t.Fatalf("m=%d k=%d n=%d (%d rows a panel): got[%d]=%x want %x",
							m, k, n, rows, j, math.Float32bits(got[j]), math.Float32bits(want[j]))
					}
				}
			}
		}
	}
}

// FuzzMatMulRow holds a single row's product — all of b = 1, and the rows
// the AVX-512 strips take where the probe chose them — to the scalar
// reference: arow is arbitrary bits (±0 skipped; NaN, ±Inf and denormals
// kept), k ≤ 300, n ≤ 2 048, and each operand at its own float offset. Where
// the reference is NaN any NaN will do, as in checkAxpy.
func FuzzMatMulRow(f *testing.F) {
	bits := func(vs ...uint32) []byte {
		raw := make([]byte, 4*len(vs))
		for i, v := range vs {
			binary.LittleEndian.PutUint32(raw[4*i:], v)
		}
		return raw
	}
	const nan, pinf, ninf, negZero, denorm = 0x7fc00001, 0x7f800000, 0xff800000, 0x80000000, 0x00000001
	one, half := math.Float32bits(1), math.Float32bits(-0.5)
	f.Add(int64(1), uint16(1000), uint16(0), bits(one, half, 0, one))
	f.Add(int64(2), uint16(257), uint16(0x1b), bits(0, negZero, one, 0, half, negZero))
	f.Add(int64(3), uint16(15), uint16(0x2e), bits(nan, one, denorm))
	f.Add(int64(4), uint16(511), uint16(0x3f), bits(pinf, 0, ninf, negZero, nan))
	f.Add(int64(5), uint16(240), uint16(0x06), bits(denorm, denorm|negZero, 0x7f7fffff))
	f.Add(int64(6), uint16(0), uint16(0x39), bits(one))
	f.Add(int64(7), uint16(2048), uint16(0x12), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, n, offs uint16, raw []byte) {
		k := min(len(raw)/4, 300)
		cols := int(n) % 2049
		rng := rand.New(rand.NewSource(seed))
		arow := offsetSlice(k, int(offs)%4)
		for p := range arow {
			arow[p] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*p:]))
		}
		b := offsetSlice(k*cols, int(offs>>2)%4)
		bias := offsetSlice(cols, int(offs>>4)%4)
		got := offsetSlice(cols, int(offs>>6)%4)
		want := make([]float32, cols)
		fillMatrix(rng, b)
		fillMatrix(rng, bias)
		for _, bs := range [][]float32{nil, bias} {
			scalarMatMulRef(want, arow, b, bs, 1, k, cols)
			matMulTile(got, arow, b, bs, 1, k, cols)
			for j, w := range want {
				if g := got[j]; math.Float32bits(g) != math.Float32bits(w) && (w == w || g == g) {
					t.Fatalf("k=%d n=%d offs=%#x bias=%v: [%d]=%x want %x",
						k, cols, offs, bs != nil, j, math.Float32bits(g), math.Float32bits(w))
				}
			}
		}
	})
}

// FuzzMatMulBlock holds the 4-row blocks — the block strips where the probe
// chose them — to the scalar reference: m is 4..19 (one to four blocks and
// every remainder), a is arbitrary bits (k ≤ 64 terms a row), and b and the
// bias are fillMatrix values (±0 among them) with NaN and ±Inf sprinkled in,
// one element in 64 of b and one in 16 of the bias; n ≤ 300 and each
// operand sits at its own float offset. Where the reference is NaN any NaN
// will do, as in checkAxpy.
func FuzzMatMulBlock(f *testing.F) {
	bits := func(rows ...[]uint32) []byte {
		var raw []byte
		for _, row := range rows {
			for _, v := range row {
				raw = binary.LittleEndian.AppendUint32(raw, v)
			}
		}
		return raw
	}
	const nan, pinf, ninf, negZero, denorm = 0x7fc00001, 0x7f800000, 0xff800000, 0x80000000, 0x00000001
	one, half := math.Float32bits(1), math.Float32bits(-0.5)
	f.Add(int64(1), uint8(0), uint16(64), uint16(0), bits([]uint32{one, half, 0}, []uint32{0, 0, 0},
		[]uint32{negZero, one, 0}, []uint32{0, negZero, 0}))
	f.Add(int64(2), uint8(1), uint16(17), uint16(0x1b), bits([]uint32{0, one}, []uint32{negZero, 0},
		[]uint32{nan, 0}, []uint32{0, pinf}, []uint32{ninf, denorm}))
	f.Add(int64(3), uint8(4), uint16(65), uint16(0x2e), bits([]uint32{one, 0, 0, 0}, []uint32{0, one, 0, 0},
		[]uint32{0, 0, one, 0}, []uint32{0, 0, 0, one}, []uint32{0, 0, 0, 0}, []uint32{0, 0, 0, 0},
		[]uint32{0, 0, 0, 0}, []uint32{negZero, negZero, negZero, negZero}))
	f.Add(int64(4), uint8(3), uint16(15), uint16(0x3f), bits([]uint32{denorm}, []uint32{half}, []uint32{0},
		[]uint32{negZero}, []uint32{nan}, []uint32{one}, []uint32{pinf}))
	f.Add(int64(5), uint8(12), uint16(1000), uint16(0x15), []byte{})
	var wide []uint32 // 17 rows of 5: a row in four is all ±0
	for i := 0; i < 17*5; i++ {
		switch {
		case i/5%4 == 2:
			wide = append(wide, uint32(i%2)<<31)
		default:
			wide = append(wide, []uint32{one, half, denorm, 0x7f7fffff, 0}[i%5])
		}
	}
	f.Add(int64(6), uint8(13), uint16(300), uint16(0x06), bits(wide))
	f.Fuzz(func(t *testing.T, seed int64, mraw uint8, n, offs uint16, raw []byte) {
		m := 4 + int(mraw)%16
		k := min(len(raw)/(4*m), 64)
		cols := int(n) % 301
		rng := rand.New(rand.NewSource(seed))
		poison := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}
		a := offsetSlice(m*k, int(offs)%4)
		for i := range a {
			a[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		b := offsetSlice(k*cols, int(offs>>2)%4)
		bias := offsetSlice(cols, int(offs>>4)%4)
		got := offsetSlice(m*cols, int(offs>>6)%4)
		want := make([]float32, m*cols)
		fillMatrix(rng, b)
		fillMatrix(rng, bias)
		for i := range b {
			if rng.Intn(64) == 0 {
				b[i] = poison[rng.Intn(len(poison))]
			}
		}
		for j := range bias {
			if rng.Intn(16) == 0 {
				bias[j] = poison[rng.Intn(len(poison))]
			}
		}
		for _, bs := range [][]float32{nil, bias} {
			scalarMatMulRef(want, a, b, bs, m, k, cols)
			matMulTile(got, a, b, bs, m, k, cols)
			for i, w := range want {
				if g := got[i]; math.Float32bits(g) != math.Float32bits(w) && (w == w || g == g) {
					t.Fatalf("m=%d k=%d n=%d offs=%#x bias=%v: [%d]=%x want %x",
						m, k, cols, offs, bs != nil, i, math.Float32bits(g), math.Float32bits(w))
				}
			}
		}
	})
}

// TestMatMulRowsMatchBatchOne is the batching identity at the kernel: with
// finite inputs and no exact zeros (so neither zero skip fires), row i of an
// m-row product is bit-equal to the 1-row product of that row, whether the
// row lands in a 4-row block or the remainder. Shapes are the weight shapes
// of the three BENCHMARK.json models. It runs on every kernel path.
func TestMatMulRowsMatchBatchOne(t *testing.T) {
	forEachKernel(t, testMatMulRowsMatchBatchOne)
}

func testMatMulRowsMatchBatchOne(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	nonzero := func(data []float32) {
		for i := range data {
			for data[i] == 0 {
				data[i] = float32(rng.NormFloat64())
			}
		}
	}
	for _, s := range servingShapes {
		w := make([]float32, s.k*s.n)
		bias := make([]float32, s.n)
		nonzero(w)
		nonzero(bias)
		for _, m := range []int{2, 3, 4, 5, 6, 7, 16, 17} {
			a := make([]float32, m*s.k)
			nonzero(a)
			batched := make([]float32, m*s.n)
			single := make([]float32, s.n)
			for _, bs := range [][]float32{nil, bias} {
				matMulTile(batched, a, w, bs, m, s.k, s.n)
				for i := 0; i < m; i++ {
					matMulTile(single, a[i*s.k:(i+1)*s.k], w, bs, 1, s.k, s.n)
					for j, want := range single {
						if got := batched[i*s.n+j]; math.Float32bits(got) != math.Float32bits(want) {
							t.Fatalf("%dx%d m=%d bias=%v: row %d col %d = %x, batch-1 gives %x",
								s.k, s.n, m, bs != nil, i, j, math.Float32bits(got), math.Float32bits(want))
						}
					}
				}
			}
		}
	}
}

// TestMatMulIntoMatchesMatMul pins the Into variant to the allocating API.
func TestMatMulIntoMatchesMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := New(5, 7)
	b := New(7, 9)
	fillMatrix(rng, a.Data())
	fillMatrix(rng, b.Data())
	want := MatMul(a, b)
	got := New(5, 9)
	// Pre-poison dst: MatMulInto must fully overwrite it.
	for i := range got.Data() {
		got.Data()[i] = float32(math.NaN())
	}
	MatMulInto(got, a, b)
	if !got.Equal(want) {
		t.Fatalf("MatMulInto disagrees with MatMul")
	}
}

// TestMatMulAddBiasIntoMatchesSerial pins bias-initialized accumulation:
// the fused variant equals bias-broadcast followed by accumulation in the
// same element order.
func TestMatMulAddBiasIntoMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := New(6, 4)
	w := New(4, 5)
	bias := New(5)
	fillMatrix(rng, a.Data())
	fillMatrix(rng, w.Data())
	fillMatrix(rng, bias.Data())
	got := MatMulAddBias(a, w, bias)
	want := New(6, 5)
	for i := 0; i < 6; i++ {
		copy(want.Data()[i*5:(i+1)*5], bias.Data())
	}
	matMulAccumulateRef(want.Data(), a.Data(), w.Data(), 6, 4, 5)
	if !got.Equal(want) {
		t.Fatalf("MatMulAddBias = %v, want %v", got.Data(), want.Data())
	}
}

// matMulAccumulateRef is a naive dst += a@b in the kernel's (i, p, j) order.
func matMulAccumulateRef(dst, a, b []float32, m, k, n int) {
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			av := a[i*k+p]
			if av == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				dst[i*n+j] += av * b[p*n+j]
			}
		}
	}
}

func TestFillRows(t *testing.T) {
	dst := New(3, 2)
	rows := []*Tensor{
		FromSlice([]float32{1, 2}, 2),
		FromSlice([]float32{3, 4}, 1, 2),
		FromSlice([]float32{5, 6}, 2),
	}
	FillRows(dst, rows)
	if !dst.Equal(FromSlice([]float32{1, 2, 3, 4, 5, 6}, 3, 2)) {
		t.Fatalf("FillRows = %v", dst.Data())
	}
}

func TestFillRowsRejectsLooseFit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FillRows with mismatched row count must panic")
		}
	}()
	FillRows(New(3, 2), []*Tensor{FromSlice([]float32{1, 2}, 2)})
}
