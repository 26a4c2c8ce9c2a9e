package tensor

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

var exhaustiveFlag = flag.Bool("exhaustive", false,
	"compare the activation lanes with Tanh32/Sigmoid32 on all 2^32 float32 inputs (nightly)")

// sameFloat is the lane contract: equal bits, or NaN on both sides (the NaN
// payload is not part of it).
func sameFloat(got, want float32) bool {
	return math.Float32bits(got) == math.Float32bits(want) || (got != got && want != want)
}

// activations pairs each slice kernel with the scalar function it must equal.
var activations = []struct {
	name   string
	slice  func(dst, src []float32)
	scalar func(float32) float32
}{
	{"TanhSlice", TanhSlice, Tanh32},
	{"SigmoidSlice", SigmoidSlice, Sigmoid32},
}

// guardBits fills the floats around every output row; a kernel that stores
// outside its row overwrites them.
const guardBits = 0xdeadbeef

// checkActivations runs both slice kernels over in and holds every element
// to the scalar function. The source sits srcOff floats into its allocation
// and the output dstOff floats into its own, or the kernel runs in place
// (alias), so each operand's 16-byte misalignment is chosen independently.
// Guard floats on both sides of the output must survive, and a separate
// source must come back unchanged.
func checkActivations(t *testing.T, in []float32, dstOff, srcOff int, alias bool) {
	t.Helper()
	const guard = 4
	n := len(in)
	guarded := func(off int) []float32 {
		buf := offsetSlice(n+2*guard, off)
		for i := range buf {
			buf[i] = math.Float32frombits(guardBits)
		}
		return buf
	}
	for _, act := range activations {
		srcBuf := guarded(srcOff)
		src := srcBuf[guard : guard+n]
		copy(src, in)
		dstBuf := srcBuf
		if !alias {
			dstBuf = guarded(dstOff)
		}
		dst := dstBuf[guard : guard+n]
		act.slice(dst, src)
		for i, x := range in {
			if want := act.scalar(x); !sameFloat(dst[i], want) {
				t.Fatalf("%s n=%d dstOff=%d srcOff=%d alias=%v: [%d] of %x = %x, scalar %x",
					act.name, n, dstOff, srcOff, alias, i, math.Float32bits(x),
					math.Float32bits(dst[i]), math.Float32bits(want))
			}
		}
		for i := 0; i < guard; i++ {
			if math.Float32bits(dstBuf[i]) != guardBits || math.Float32bits(dstBuf[guard+n+i]) != guardBits {
				t.Fatalf("%s n=%d dstOff=%d srcOff=%d alias=%v: wrote outside dst", act.name, n, dstOff, srcOff, alias)
			}
		}
		if !alias {
			for i, x := range in {
				if math.Float32bits(src[i]) != math.Float32bits(x) {
					t.Fatalf("%s n=%d: modified src[%d]", act.name, n, i)
				}
			}
		}
	}
}

// specialInputs are the float32 values at which a vector kernel most easily
// parts from its scalar reference: signed zeros, denormals, the normal
// boundary, ±Inf, quiet and signalling NaNs of both signs, the clamp and its
// neighbours, and the largest finite values.
func specialInputs() []float32 {
	next := func(x float32, dir float64) float32 { return math.Nextafter32(x, float32(dir)) }
	inf := math.Inf(1)
	var vals []float32
	for _, x := range []float32{
		0, 1, 0.5, 1e-4, 4e-4, 2, 5, 9, 15.8, 16, 20, 88, 1e10,
		math.Float32frombits(1),          // smallest denormal
		math.Float32frombits(0x007fffff), // largest denormal
		math.Float32frombits(0x00800000), // smallest normal
		math.MaxFloat32,
		float32(inf),
		tanhClamp, next(tanhClamp, inf), next(tanhClamp, 0),
		2 * tanhClamp, next(2*tanhClamp, inf), next(2*tanhClamp, 0),
	} {
		vals = append(vals, x, -x)
	}
	return append(vals,
		math.Float32frombits(0x7fc00000), math.Float32frombits(0xffc00000), // quiet NaNs
		math.Float32frombits(0x7f800001), math.Float32frombits(0xff800001), // signalling NaNs
		math.Float32frombits(0x7fc12345),
	)
}

// TestActivationLanesMatchScalar holds TanhSlice and SigmoidSlice to
// Tanh32 and Sigmoid32 bit for bit on every slice length 0…19 (main loop and
// every tail), with the source and the output each at every float offset
// 0…3 and in place, over the special inputs and then 10⁶ bit patterns
// strided across all of float32.
func TestActivationLanesMatchScalar(t *testing.T) {
	special := specialInputs()
	window := func(start, n int) []float32 {
		in := make([]float32, n)
		for i := range in {
			in[i] = special[(start+i)%len(special)]
		}
		return in
	}
	for n := 0; n <= 19; n++ {
		for start := 0; start < len(special); start += 3 {
			in := window(start, n)
			for off := 0; off < 4; off++ {
				for srcOff := 0; srcOff < 4; srcOff++ {
					checkActivations(t, in, off, srcOff, false)
				}
				checkActivations(t, in, 0, off, true) // in place, off floats in
			}
		}
	}

	const patterns, chunk = 1_000_000, 997
	in := make([]float32, 0, chunk)
	for i := 0; i < patterns; i++ {
		in = append(in, math.Float32frombits(uint32(i)*4295+0x9e37))
		if len(in) == chunk || i == patterns-1 {
			off := i % 4
			checkActivations(t, in, off, 3-off, i%3 == 0)
			in = in[:0]
		}
	}
}

// TestActivationAccuracy pins the approximation against float64 math: an
// absolute error of at most 5e-7 on a dense grid over [-20, 20], exact odd
// symmetry of Tanh32, monotone to within monotoneSlack along the grid, and
// the limits at ±Inf.
func TestActivationAccuracy(t *testing.T) {
	const bound = 5e-7
	var tanhErr, sigErr, tanhRel, tanhDrop, sigDrop float64
	tanhMax, sigMax := float32(-1), float32(0)
	for i := -2_000_000; i <= 2_000_000; i++ {
		x := float32(i) * 1e-5
		tv, sv := Tanh32(x), Sigmoid32(x)
		tanhDrop = math.Max(tanhDrop, float64(tanhMax-tv))
		sigDrop = math.Max(sigDrop, float64(sigMax-sv))
		tanhMax, sigMax = max(tanhMax, tv), max(sigMax, sv)
		xt := float64(x)
		want := math.Tanh(xt)
		tanhErr = math.Max(tanhErr, math.Abs(float64(tv)-want))
		sigErr = math.Max(sigErr, math.Abs(float64(sv)-1/(1+math.Exp(-xt))))
		if x > 0 && x < 7.9 {
			tanhRel = math.Max(tanhRel, math.Abs(float64(tv)-want)/want)
		}
		if neg := Tanh32(-x); math.Float32bits(neg) != math.Float32bits(-tv) {
			t.Fatalf("Tanh32(-%v) = %v, -Tanh32(%v) = %v", x, neg, x, -tv)
		}
	}
	t.Logf("max abs error on [-20, 20]: tanh %.3g, sigmoid %.3g; max rel error of tanh on (0, 7.9): %.3g; "+
		"largest drop below the running max: tanh %.3g, sigmoid %.3g", tanhErr, sigErr, tanhRel, tanhDrop, sigDrop)
	if tanhErr > bound || sigErr > bound {
		t.Fatalf("max abs error tanh %.3g, sigmoid %.3g; bound %g", tanhErr, sigErr, bound)
	}
	if tanhDrop > monotoneSlack || sigDrop > monotoneSlack {
		t.Fatalf("not monotone within %g: tanh drops %.3g, sigmoid %.3g", monotoneSlack, tanhDrop, sigDrop)
	}
	inf := float32(math.Inf(1))
	if Tanh32(inf) != 1 || Tanh32(-inf) != -1 || Sigmoid32(inf) != 1 || Sigmoid32(-inf) != 0 {
		t.Fatalf("limits: tanh(±Inf) = %v, %v; sigmoid(±Inf) = %v, %v",
			Tanh32(inf), Tanh32(-inf), Sigmoid32(inf), Sigmoid32(-inf))
	}
	if z := Tanh32(float32(math.Copysign(0, -1))); math.Float32bits(z) != 0x80000000 {
		t.Fatalf("Tanh32(-0) = %x, want -0", math.Float32bits(z))
	}
}

// FuzzActivations holds the slice kernels to the scalar functions on
// arbitrary bit patterns, lengths and placements: the four given patterns are
// planted among seeded random ones.
func FuzzActivations(f *testing.F) {
	const nan, snan, pinf, ninf = 0x7fc00001, 0x7f800001, 0x7f800000, 0xff800000
	clamp := math.Float32bits(tanhClamp)
	f.Add(int64(1), uint16(0), uint8(0), uint32(0), uint32(0x80000000), uint32(1), uint32(0x807fffff))
	f.Add(int64(2), uint16(17), uint8(0x1b), uint32(nan), uint32(snan), uint32(pinf), uint32(ninf))
	f.Add(int64(3), uint16(35), uint8(0x2e), clamp, clamp+1, clamp-1, clamp|0x80000000)
	f.Add(int64(4), uint16(64), uint8(0x13), uint32(0x7f7fffff), uint32(0xff7fffff), uint32(0x00800000), uint32(0x3f800000))
	f.Add(int64(5), uint16(1000), uint8(0x06), uint32(0x38d1b717), uint32(0xb8d1b717), uint32(0x41000000), uint32(0xc1000000))
	f.Add(int64(6), uint16(3), uint8(0x1f), uint32(nan), uint32(0), uint32(pinf), uint32(1))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, offs uint8, b0, b1, b2, b3 uint32) {
		rng := rand.New(rand.NewSource(seed))
		planted := [4]uint32{b0, b1, b2, b3}
		in := make([]float32, int(n%2048))
		for i := range in {
			bits := rng.Uint32()
			if rng.Intn(4) == 0 {
				bits = planted[rng.Intn(4)]
			}
			in[i] = math.Float32frombits(bits)
		}
		checkActivations(t, in, int(offs&3), int(offs>>2&3), offs&16 != 0)
	})
}

// TestActivationLanesExhaustive compares the slice kernels with the scalar
// functions on every float32 bit pattern. It takes minutes, so it runs only
// with -exhaustive (the nightly job).
func TestActivationLanesExhaustive(t *testing.T) {
	if !*exhaustiveFlag {
		t.Skip("pass -exhaustive to sweep all 2^32 inputs")
	}
	const chunk = 1 << 16
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := make([]float32, chunk)
			dst := make([]float32, chunk)
			for base := uint64(w) * chunk; base < 1<<32; base += uint64(workers) * chunk {
				for i := range src {
					src[i] = math.Float32frombits(uint32(base) + uint32(i))
				}
				for _, act := range activations {
					act.slice(dst, src)
					for i, x := range src {
						if want := act.scalar(x); !sameFloat(dst[i], want) {
							errs <- fmt.Sprintf("%s: lane differs from scalar at %#08x", act.name, math.Float32bits(x))
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
