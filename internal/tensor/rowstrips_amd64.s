#include "textflag.h"

// func rowStrips(o, arow, b []float32)
//
// o += arow @ b for one output row, on AVX-512F. b holds len(arow) rows of
// len(o) floats; the caller (matMulRow) slices it to that length.
// o is cut into strips of 256 floats (Z16..Z31) and a last strip of the
// rest, made of 128-, 64-, 32- and 16-float sub-strips and one K1-masked
// one of 1..15. A strip is loaded once, swept over every surviving term p
// in ascending order and stored once, so between load and store it lives
// in registers while its columns of b stream past. A term survives iff arow[p]
// is not ±0 (the bits outside the sign are tested, so NaN and denormal
// scalars survive): matMulRow's skip rule. Each term is one VMULPS and then
// one VADDPS per lane — the rounded multiply and rounded add of the Go loops,
// never fused — so every element sees exactly axpy1Go's operations in
// matMulRow's order. Masked loads and stores touch no memory outside their
// lanes, so no access strays past the end of o or of a row of b.
//
// DI: the strip's floats of o; R8: the strip's floats of b row 0; R9: a row
// of b in bytes; CX: floats of o not yet swept. In a sweep R10 walks the
// strip's floats down b, one row per p, R11 walks arow and R12 counts the
// terms left. Z0 is the broadcast term, Z1..Z8 hold products, Z16..Z31 the
// strip.
TEXT ·rowStrips(SB), NOSPLIT, $0-72
	MOVQ o_base+0(FP), DI
	MOVQ o_len+8(FP), CX
	MOVQ arow_base+24(FP), SI
	MOVQ arow_len+32(FP), DX
	MOVQ b_base+48(FP), R8
	MOVQ CX, R9
	SHLQ $2, R9

// SWEEP starts a strip's sweep at p = 0: R10 at the strip's floats of b row
// 0, R11 at arow[0], R12 = len(arow).
#define SWEEP \
	MOVQ R8, R10; \
	MOVQ SI, R11; \
	MOVQ DX, R12

// TERM jumps to skip when arow[p] is ±0 and otherwise broadcasts it into Z0.
#define TERM(skip) \
	MOVL         (R11), AX;       \
	TESTL        $0x7fffffff, AX; \
	JEQ          skip;            \
	VBROADCASTSS (R11), Z0

// NEXT steps R10 and R11 to term p+1 and loops to top while terms are left.
#define NEXT(top) \
	ADDQ R9, R10;  \
	ADDQ $4, R11;  \
	DECQ R12;      \
	JNE  top

// MAC does acc += Z0 * b[R10+off:] for sixteen floats, through product t.
#define MAC(off, t, acc) \
	VMULPS off(R10), Z0, t; \
	VADDPS t, acc, acc

// MACX is MAC at byte offset x+off into the strip.
#define MACX(off, x, t, acc) \
	VMULPS off(R10)(x*1), Z0, t; \
	VADDPS t, acc, acc

// LOADLO, MACLO and STORELO do the strip's floats 0..127 in Z16..Z23;
// LOADHI, MACHI and STOREHI its floats 128..255 in Z24..Z31.
#define LOADLO \
	VMOVUPS (DI), Z16;    \
	VMOVUPS 64(DI), Z17;  \
	VMOVUPS 128(DI), Z18; \
	VMOVUPS 192(DI), Z19; \
	VMOVUPS 256(DI), Z20; \
	VMOVUPS 320(DI), Z21; \
	VMOVUPS 384(DI), Z22; \
	VMOVUPS 448(DI), Z23

#define LOADHI \
	VMOVUPS 512(DI), Z24; \
	VMOVUPS 576(DI), Z25; \
	VMOVUPS 640(DI), Z26; \
	VMOVUPS 704(DI), Z27; \
	VMOVUPS 768(DI), Z28; \
	VMOVUPS 832(DI), Z29; \
	VMOVUPS 896(DI), Z30; \
	VMOVUPS 960(DI), Z31

#define MACLO \
	MAC(0, Z1, Z16);   \
	MAC(64, Z2, Z17);  \
	MAC(128, Z3, Z18); \
	MAC(192, Z4, Z19); \
	MAC(256, Z5, Z20); \
	MAC(320, Z6, Z21); \
	MAC(384, Z7, Z22); \
	MAC(448, Z8, Z23)

#define MACHI \
	MAC(512, Z1, Z24); \
	MAC(576, Z2, Z25); \
	MAC(640, Z3, Z26); \
	MAC(704, Z4, Z27); \
	MAC(768, Z5, Z28); \
	MAC(832, Z6, Z29); \
	MAC(896, Z7, Z30); \
	MAC(960, Z8, Z31)

#define STORELO \
	VMOVUPS Z16, (DI);    \
	VMOVUPS Z17, 64(DI);  \
	VMOVUPS Z18, 128(DI); \
	VMOVUPS Z19, 192(DI); \
	VMOVUPS Z20, 256(DI); \
	VMOVUPS Z21, 320(DI); \
	VMOVUPS Z22, 384(DI); \
	VMOVUPS Z23, 448(DI)

#define STOREHI \
	VMOVUPS Z24, 512(DI); \
	VMOVUPS Z25, 576(DI); \
	VMOVUPS Z26, 640(DI); \
	VMOVUPS Z27, 704(DI); \
	VMOVUPS Z28, 768(DI); \
	VMOVUPS Z29, 832(DI); \
	VMOVUPS Z30, 896(DI); \
	VMOVUPS Z31, 960(DI)

strip256:
	CMPQ CX, $256
	JLT  rest
	LOADLO
	LOADHI
	SWEEP
	TESTQ R12, R12
	JEQ   store256

term256:
	TERM(next256)
	MACLO
	MACHI

next256:
	NEXT(term256)

store256:
	STORELO
	STOREHI
	ADDQ $1024, DI
	ADDQ $1024, R8
	SUBQ $256, CX
	JMP  strip256

// The last r = CX < 256 floats in one sweep, as up to five sub-strips: 128
// floats in Z16..Z23 where r has bit 7, 64 in Z24..Z27 where it has bit 6,
// 32 in Z28..Z29 (bit 5), 16 in Z30 (bit 4), and the r mod 16 left in Z31
// through K1, whose low r mod 16 bits are set; masked lanes are zeroed on
// load and neither read nor written in memory. A sub-strip's byte offset into
// the strip is set by the bits of r above its own: 0, BX, R13, SI and DX
// (free once SWEEP has copied arow and its length). The tests of r inside
// the sweep branch the same way for every term.
rest:
	TESTQ CX, CX
	JEQ   done
	MOVQ  CX, BX
	ANDL  $15, CX
	MOVL  $1, AX
	SHLL  CX, AX
	DECL  AX
	KMOVW AX, K1
	MOVQ  BX, CX
	SWEEP
	ANDQ  $128, BX
	SHLQ  $2, BX
	MOVQ  CX, R13
	ANDQ  $192, R13
	SHLQ  $2, R13
	MOVQ  CX, SI
	ANDQ  $224, SI
	SHLQ  $2, SI
	MOVQ  CX, DX
	ANDQ  $240, DX
	SHLQ  $2, DX

	TESTQ $128, CX
	JEQ   load64
	LOADLO

load64:
	TESTQ   $64, CX
	JEQ     load32
	VMOVUPS (DI)(BX*1), Z24
	VMOVUPS 64(DI)(BX*1), Z25
	VMOVUPS 128(DI)(BX*1), Z26
	VMOVUPS 192(DI)(BX*1), Z27

load32:
	TESTQ   $32, CX
	JEQ     load16
	VMOVUPS (DI)(R13*1), Z28
	VMOVUPS 64(DI)(R13*1), Z29

load16:
	TESTQ   $16, CX
	JEQ     loadmasked
	VMOVUPS (DI)(SI*1), Z30

loadmasked:
	VMOVUPS.Z (DI)(DX*1), K1, Z31
	TESTQ     R12, R12
	JEQ       storerest

termrest:
	TERM(nextrest)
	TESTQ $128, CX
	JEQ   term64
	MACLO

term64:
	TESTQ $64, CX
	JEQ   term32
	MACX(0, BX, Z1, Z24)
	MACX(64, BX, Z2, Z25)
	MACX(128, BX, Z3, Z26)
	MACX(192, BX, Z4, Z27)

term32:
	TESTQ $32, CX
	JEQ   term16
	MACX(0, R13, Z5, Z28)
	MACX(64, R13, Z6, Z29)

term16:
	TESTQ $16, CX
	JEQ   termmasked
	MACX(0, SI, Z7, Z30)

termmasked:
	TESTQ     $15, CX
	JEQ       nextrest
	VMOVUPS.Z (R10)(DX*1), K1, Z8
	VMULPS    Z8, Z0, Z8
	VADDPS    Z8, Z31, Z31

nextrest:
	NEXT(termrest)

storerest:
	TESTQ $128, CX
	JEQ   store64
	STORELO

store64:
	TESTQ   $64, CX
	JEQ     store32
	VMOVUPS Z24, (DI)(BX*1)
	VMOVUPS Z25, 64(DI)(BX*1)
	VMOVUPS Z26, 128(DI)(BX*1)
	VMOVUPS Z27, 192(DI)(BX*1)

store32:
	TESTQ   $32, CX
	JEQ     store16
	VMOVUPS Z28, (DI)(R13*1)
	VMOVUPS Z29, 64(DI)(R13*1)

store16:
	TESTQ   $16, CX
	JEQ     storemasked
	VMOVUPS Z30, (DI)(SI*1)

storemasked:
	VMOVUPS Z31, K1, (DI)(DX*1)

done:
	VZEROUPPER
	RET
