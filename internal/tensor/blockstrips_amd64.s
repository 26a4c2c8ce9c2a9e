#include "textflag.h"

// func blockStrips(o, a, b []float32, n, k, terms int)
//
// o[r] += a[r] @ b for the four rows r of a 4-row block, on AVX-512F, over
// one panel of terms terms. o holds the block's four output rows of n floats,
// a its four rows of a, k floats apart, from the panel's first term, and b
// the panel's terms rows of n floats; the caller (matMulBlocks) slices all
// three to what is read. The columns are cut into strips of 64 floats, four
// rows of which live in Z16..Z31, then strips of 16 in Z16..Z19, the last of
// them K1-masked to the 1..15 floats left. A strip is loaded once, swept over
// every surviving term p in ascending order and stored once. A term survives
// unless a[r][p] is ±0 in all four rows — the bits of the four scalars are
// ORed and the bits outside the sign tested, so NaN and denormal scalars
// survive: the block's skip rule, never a per-row one, which would turn a
// −0 init into +0. Each term is one VMULPS and then one VADDPS per lane —
// the rounded multiply and rounded add of axpy4Go, never fused — so every
// element sees exactly axpy4Go's operations in matMulTile's order. Masked
// loads and stores touch no memory outside their lanes.
//
// DI: the strip's floats of o row 0; R8: the strip's floats of b row 0; SI:
// a row 0 at the panel's first term; R9: a row of o and of b in bytes; R13:
// a row of a in bytes, BX three of them; CX: columns not yet swept; DX:
// terms. In a sweep R10 walks the strip's floats down b, one row per p, R11
// walks a row 0, and R12 counts the terms left. Z0..Z3 hold the four rows'
// broadcast term, Z4..Z7 the strip's floats of a row of b, Z8..Z11
// products. AX is scratch: the skip test, the mask, and a row pointer of o.
// Z15 (the Go ABI's zero register) is not used.
TEXT ·blockStrips(SB), NOSPLIT, $0-96
	MOVQ o_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), R8
	MOVQ n+72(FP), CX
	MOVQ CX, R9
	SHLQ $2, R9
	MOVQ k+80(FP), R13
	SHLQ $2, R13
	LEAQ (R13)(R13*2), BX
	MOVQ terms+88(FP), DX

// SWEEP starts a strip's sweep at p = 0: R10 at the strip's floats of b row
// 0, R11 at a row 0's first term, R12 = terms.
#define SWEEP \
	MOVQ R8, R10; \
	MOVQ SI, R11; \
	MOVQ DX, R12

// TERM jumps to skip when a[r][p] is ±0 in all four rows and otherwise
// broadcasts a[r][p] into Z0+r.
#define TERM(skip) \
	MOVL         (R11), AX;        \
	ORL          (R11)(R13*1), AX; \
	ORL          (R11)(R13*2), AX; \
	ORL          (R11)(BX*1), AX;  \
	TESTL        $0x7fffffff, AX;  \
	JEQ          skip;             \
	VBROADCASTSS (R11), Z0;        \
	VBROADCASTSS (R11)(R13*1), Z1; \
	VBROADCASTSS (R11)(R13*2), Z2; \
	VBROADCASTSS (R11)(BX*1), Z3

// NEXT steps R10 and R11 to term p+1 and loops to top while terms are left.
#define NEXT(top) \
	ADDQ R9, R10; \
	ADDQ $4, R11; \
	DECQ R12;     \
	JNE  top

// ROW64 does acc0..acc3 += v * Z4..Z7 for one output row of a 64-float
// strip.
#define ROW64(v, acc0, acc1, acc2, acc3) \
	VMULPS Z4, v, Z8;       \
	VADDPS Z8, acc0, acc0;  \
	VMULPS Z5, v, Z9;       \
	VADDPS Z9, acc1, acc1;  \
	VMULPS Z6, v, Z10;      \
	VADDPS Z10, acc2, acc2; \
	VMULPS Z7, v, Z11;      \
	VADDPS Z11, acc3, acc3

// LOAD64 and STORE64 move one row's 64 floats at ptr to and from z0..z3.
#define LOAD64(ptr, z0, z1, z2, z3) \
	VMOVUPS (ptr), z0;    \
	VMOVUPS 64(ptr), z1;  \
	VMOVUPS 128(ptr), z2; \
	VMOVUPS 192(ptr), z3

#define STORE64(ptr, z0, z1, z2, z3) \
	VMOVUPS z0, (ptr);    \
	VMOVUPS z1, 64(ptr);  \
	VMOVUPS z2, 128(ptr); \
	VMOVUPS z3, 192(ptr)

strip64:
	CMPQ CX, $64
	JLT  narrow
	LOAD64(DI, Z16, Z17, Z18, Z19)
	LEAQ (DI)(R9*1), AX
	LOAD64(AX, Z20, Z21, Z22, Z23)
	ADDQ R9, AX
	LOAD64(AX, Z24, Z25, Z26, Z27)
	ADDQ R9, AX
	LOAD64(AX, Z28, Z29, Z30, Z31)
	SWEEP
	TESTQ R12, R12
	JEQ   store64

term64:
	TERM(next64)
	LOAD64(R10, Z4, Z5, Z6, Z7)
	ROW64(Z0, Z16, Z17, Z18, Z19)
	ROW64(Z1, Z20, Z21, Z22, Z23)
	ROW64(Z2, Z24, Z25, Z26, Z27)
	ROW64(Z3, Z28, Z29, Z30, Z31)

next64:
	NEXT(term64)

store64:
	STORE64(DI, Z16, Z17, Z18, Z19)
	LEAQ (DI)(R9*1), AX
	STORE64(AX, Z20, Z21, Z22, Z23)
	ADDQ R9, AX
	STORE64(AX, Z24, Z25, Z26, Z27)
	ADDQ R9, AX
	STORE64(AX, Z28, Z29, Z30, Z31)
	ADDQ $256, DI
	ADDQ $256, R8
	SUBQ $64, CX
	JMP  strip64

// Fewer than 64 floats left: 16-float strips, row r in Z16+r, through K1,
// which is all ones for a full strip and has the low CX bits set for the
// last one of 1..15 floats. Masked lanes are zeroed on load and neither read
// nor written in memory.
narrow:
	TESTQ CX, CX
	JEQ   done
	MOVL  $0xffff, AX
	CMPQ  CX, $16
	JGE   narrowmask
	MOVL  $1, AX
	SHLL  CX, AX
	DECL  AX

narrowmask:
	KMOVW     AX, K1
	VMOVUPS.Z (DI), K1, Z16
	LEAQ      (DI)(R9*1), AX
	VMOVUPS.Z (AX), K1, Z17
	ADDQ      R9, AX
	VMOVUPS.Z (AX), K1, Z18
	ADDQ      R9, AX
	VMOVUPS.Z (AX), K1, Z19
	SWEEP
	TESTQ     R12, R12
	JEQ       storenarrow

termnarrow:
	TERM(nextnarrow)
	VMOVUPS.Z (R10), K1, Z4
	VMULPS    Z4, Z0, Z8
	VADDPS    Z8, Z16, Z16
	VMULPS    Z4, Z1, Z9
	VADDPS    Z9, Z17, Z17
	VMULPS    Z4, Z2, Z10
	VADDPS    Z10, Z18, Z18
	VMULPS    Z4, Z3, Z11
	VADDPS    Z11, Z19, Z19

nextnarrow:
	NEXT(termnarrow)

storenarrow:
	VMOVUPS Z16, K1, (DI)
	LEAQ    (DI)(R9*1), AX
	VMOVUPS Z17, K1, (AX)
	ADDQ    R9, AX
	VMOVUPS Z18, K1, (AX)
	ADDQ    R9, AX
	VMOVUPS Z19, K1, (AX)
	ADDQ    $64, DI
	ADDQ    $64, R8
	SUBQ    $16, CX
	JGT     narrow

done:
	VZEROUPPER
	RET
