#include "textflag.h"

// AVX without FMA: VMOVUPS, VBROADCASTSS, VMULPS/VMULSS, VADDPS/VADDSS on
// ymm (eight lanes) and, in the tails, on xmm. Each term is one rounded
// multiply, then one rounded add, as in the Go loops of axpy.go; nothing is
// fused. Rows start at arbitrary float offsets, and VEX memory operands need
// no alignment, so arithmetic reads memory directly. Every AVX path ends in
// VZEROUPPER so the SSE2 code that runs next (act_amd64.s, the compiler's
// own scalar code) pays no state transition. Each primitive first tests
// useAVX (the probe's verdict, axpy_amd64.go) and, when it is false, jumps
// to its Go loop with the caller's frame untouched: the branch costs two
// instructions here, where a Go wrapper would be too large to inline and
// add a call per primitive. AX is the byte offset into every row, CX the
// floats left.

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL  leaf+0(FP), AX
	MOVL  sub+4(FP), CX
	CPUID
	MOVL  AX, eax+8(FP)
	MOVL  BX, ebx+12(FP)
	MOVL  CX, ecx+16(FP)
	MOVL  DX, edx+20(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL   CX, CX
	XGETBV
	MOVL   AX, ret+0(FP)
	RET

// func axpy1(o, b []float32, v float32)
TEXT ·axpy1(SB), NOSPLIT, $0-52
	CMPB ·useAVX(SB), $0
	JEQ  fallback
	MOVQ         o_base+0(FP), DI
	MOVQ         b_base+24(FP), SI
	MOVQ         b_len+32(FP), CX
	VBROADCASTSS v+48(FP), Y0
	XORQ         AX, AX

loop32:
	CMPQ    CX, $32
	JLT     loop8
	VMULPS  (SI)(AX*1), Y0, Y1
	VMULPS  32(SI)(AX*1), Y0, Y2
	VMULPS  64(SI)(AX*1), Y0, Y3
	VMULPS  96(SI)(AX*1), Y0, Y4
	VADDPS  (DI)(AX*1), Y1, Y1
	VADDPS  32(DI)(AX*1), Y2, Y2
	VADDPS  64(DI)(AX*1), Y3, Y3
	VADDPS  96(DI)(AX*1), Y4, Y4
	VMOVUPS Y1, (DI)(AX*1)
	VMOVUPS Y2, 32(DI)(AX*1)
	VMOVUPS Y3, 64(DI)(AX*1)
	VMOVUPS Y4, 96(DI)(AX*1)
	ADDQ    $128, AX
	SUBQ    $32, CX
	JMP     loop32

loop8:
	CMPQ    CX, $8
	JLT     loop4
	VMULPS  (SI)(AX*1), Y0, Y1
	VADDPS  (DI)(AX*1), Y1, Y1
	VMOVUPS Y1, (DI)(AX*1)
	ADDQ    $32, AX
	SUBQ    $8, CX
	JMP     loop8

loop4:
	CMPQ    CX, $4
	JLT     loop1
	VMULPS  (SI)(AX*1), X0, X1
	VADDPS  (DI)(AX*1), X1, X1
	VMOVUPS X1, (DI)(AX*1)
	ADDQ    $16, AX
	SUBQ    $4, CX

loop1:
	TESTQ  CX, CX
	JLE    done
	VMULSS (SI)(AX*1), X0, X1
	VADDSS (DI)(AX*1), X1, X1
	VMOVSS X1, (DI)(AX*1)
	ADDQ   $4, AX
	DECQ   CX
	JMP    loop1

done:
	VZEROUPPER
	RET

fallback:
	JMP ·axpy1Go(SB)

// func axpy1x4(o, b0, b1, b2, b3 []float32, v0, v1, v2, v3 float32)
//
// o[j] = (((o[j] + v0*b0[j]) + v1*b1[j]) + v2*b2[j]) + v3*b3[j]: four axpy1
// calls with o held in Y4..Y7 between them, so o is loaded and stored once
// per four terms, and the terms are added in b0..b3 order.
TEXT ·axpy1x4(SB), NOSPLIT, $0-136
	CMPB ·useAVX(SB), $0
	JEQ  fallback
	MOVQ         o_base+0(FP), DI
	MOVQ         b0_base+24(FP), R8
	MOVQ         b0_len+32(FP), CX
	MOVQ         b1_base+48(FP), R9
	MOVQ         b2_base+72(FP), R10
	MOVQ         b3_base+96(FP), R11
	VBROADCASTSS v0+120(FP), Y0
	VBROADCASTSS v1+124(FP), Y1
	VBROADCASTSS v2+128(FP), Y2
	VBROADCASTSS v3+132(FP), Y3
	XORQ         AX, AX

// TERM32 does Y4..Y7 += s*row[AX:AX+128] for one row of b.
#define TERM32(s, row) \
	VMULPS (row)(AX*1), s, Y8;    \
	VMULPS 32(row)(AX*1), s, Y9;  \
	VMULPS 64(row)(AX*1), s, Y10; \
	VMULPS 96(row)(AX*1), s, Y11; \
	VADDPS Y8, Y4, Y4;            \
	VADDPS Y9, Y5, Y5;            \
	VADDPS Y10, Y6, Y6;           \
	VADDPS Y11, Y7, Y7

// TERM8 is TERM32 for eight floats accumulated in Y4.
#define TERM8(s, row) \
	VMULPS (row)(AX*1), s, Y8; \
	VADDPS Y8, Y4, Y4

// TERM4 is TERM32 for four floats accumulated in X4.
#define TERM4(s, row) \
	VMULPS (row)(AX*1), s, X8; \
	VADDPS X8, X4, X4

// TERM1 is TERM32 for one float accumulated in the low lane of X4.
#define TERM1(s, row) \
	VMULSS (row)(AX*1), s, X8; \
	VADDSS X8, X4, X4

loop32:
	CMPQ    CX, $32
	JLT     loop8
	VMOVUPS (DI)(AX*1), Y4
	VMOVUPS 32(DI)(AX*1), Y5
	VMOVUPS 64(DI)(AX*1), Y6
	VMOVUPS 96(DI)(AX*1), Y7
	TERM32(Y0, R8)
	TERM32(Y1, R9)
	TERM32(Y2, R10)
	TERM32(Y3, R11)
	VMOVUPS Y4, (DI)(AX*1)
	VMOVUPS Y5, 32(DI)(AX*1)
	VMOVUPS Y6, 64(DI)(AX*1)
	VMOVUPS Y7, 96(DI)(AX*1)
	ADDQ    $128, AX
	SUBQ    $32, CX
	JMP     loop32

loop8:
	CMPQ    CX, $8
	JLT     loop4
	VMOVUPS (DI)(AX*1), Y4
	TERM8(Y0, R8)
	TERM8(Y1, R9)
	TERM8(Y2, R10)
	TERM8(Y3, R11)
	VMOVUPS Y4, (DI)(AX*1)
	ADDQ    $32, AX
	SUBQ    $8, CX
	JMP     loop8

loop4:
	CMPQ    CX, $4
	JLT     loop1
	VMOVUPS (DI)(AX*1), X4
	TERM4(X0, R8)
	TERM4(X1, R9)
	TERM4(X2, R10)
	TERM4(X3, R11)
	VMOVUPS X4, (DI)(AX*1)
	ADDQ    $16, AX
	SUBQ    $4, CX

loop1:
	TESTQ  CX, CX
	JLE    done
	VMOVSS (DI)(AX*1), X4
	TERM1(X0, R8)
	TERM1(X1, R9)
	TERM1(X2, R10)
	TERM1(X3, R11)
	VMOVSS X4, (DI)(AX*1)
	ADDQ   $4, AX
	DECQ   CX
	JMP    loop1

done:
	VZEROUPPER
	RET

fallback:
	JMP ·axpy1x4Go(SB)

// func axpy4(o0, o1, o2, o3, b []float32, v0, v1, v2, v3 float32)
TEXT ·axpy4(SB), NOSPLIT, $0-136
	CMPB ·useAVX(SB), $0
	JEQ  fallback
	MOVQ         o0_base+0(FP), R8
	MOVQ         o1_base+24(FP), R9
	MOVQ         o2_base+48(FP), R10
	MOVQ         o3_base+72(FP), R11
	MOVQ         b_base+96(FP), SI
	MOVQ         b_len+104(FP), CX
	VBROADCASTSS v0+120(FP), Y0
	VBROADCASTSS v1+124(FP), Y1
	VBROADCASTSS v2+128(FP), Y2
	VBROADCASTSS v3+132(FP), Y3
	XORQ         AX, AX

// ROW16 does row[AX:AX+64] += s*b for one output row: Y4/Y5 hold sixteen
// floats of b, s is the row's broadcast scalar.
#define ROW16(s, row) \
	VMULPS  Y4, s, Y6;            \
	VMULPS  Y5, s, Y7;            \
	VADDPS  (row)(AX*1), Y6, Y6;  \
	VADDPS  32(row)(AX*1), Y7, Y7; \
	VMOVUPS Y6, (row)(AX*1);      \
	VMOVUPS Y7, 32(row)(AX*1)

// ROW8 is ROW16 for eight floats of b in Y4.
#define ROW8(s, row) \
	VMULPS  Y4, s, Y6;           \
	VADDPS  (row)(AX*1), Y6, Y6; \
	VMOVUPS Y6, (row)(AX*1)

// ROW4 is ROW16 for four floats of b in X4.
#define ROW4(s, row) \
	VMULPS  X4, s, X6;           \
	VADDPS  (row)(AX*1), X6, X6; \
	VMOVUPS X6, (row)(AX*1)

// ROW1 is ROW16 for one float of b in the low lane of X4.
#define ROW1(s, row) \
	VMULSS X4, s, X6;           \
	VADDSS (row)(AX*1), X6, X6; \
	VMOVSS X6, (row)(AX*1)

loop16:
	CMPQ    CX, $16
	JLT     loop8
	VMOVUPS (SI)(AX*1), Y4
	VMOVUPS 32(SI)(AX*1), Y5
	ROW16(Y0, R8)
	ROW16(Y1, R9)
	ROW16(Y2, R10)
	ROW16(Y3, R11)
	ADDQ    $64, AX
	SUBQ    $16, CX
	JMP     loop16

loop8:
	CMPQ    CX, $8
	JLT     loop4
	VMOVUPS (SI)(AX*1), Y4
	ROW8(Y0, R8)
	ROW8(Y1, R9)
	ROW8(Y2, R10)
	ROW8(Y3, R11)
	ADDQ    $32, AX
	SUBQ    $8, CX

loop4:
	CMPQ    CX, $4
	JLT     loop1
	VMOVUPS (SI)(AX*1), X4
	ROW4(X0, R8)
	ROW4(X1, R9)
	ROW4(X2, R10)
	ROW4(X3, R11)
	ADDQ    $16, AX
	SUBQ    $4, CX

loop1:
	TESTQ  CX, CX
	JLE    done
	VMOVSS (SI)(AX*1), X4
	ROW1(X0, R8)
	ROW1(X1, R9)
	ROW1(X2, R10)
	ROW1(X3, R11)
	ADDQ   $4, AX
	DECQ   CX
	JMP    loop1

done:
	VZEROUPPER
	RET

fallback:
	JMP ·axpy4Go(SB)
