#include "textflag.h"

// SSE2 only (GOAMD64=v1): MOVUPS, MULPS, ADDPS, DIVPS, MINPS, MAXPS. No FMA,
// no AVX. Each lane performs the operations of Tanh32 / Sigmoid32 (act.go) in
// their order, every multiply and add rounded on its own. Packed arithmetic
// never takes a memory operand (SSE would demand 16-byte alignment): the
// constants of actLanes are loaded into registers once with MOVUPS, except
// the two Horner seeds, which are loaded afresh each iteration because
// sixteen registers do not hold all fourteen constants and three working
// values. AX is the byte offset into both slices, CX the floats left, always
// a multiple of four.
//
// X3 clamp, X4 -clamp, X5..X10 a11, a9, a7, a5, a3, a1, X11..X13 b4, b2, b0,
// X14 0.5 (sigmoid only); seeds a13 at actLanes+32, b6 at actLanes+144.

#define LOADTANH \
	MOVUPS ·actLanes+0(SB), X3;   \
	MOVUPS ·actLanes+16(SB), X4;  \
	MOVUPS ·actLanes+48(SB), X5;  \
	MOVUPS ·actLanes+64(SB), X6;  \
	MOVUPS ·actLanes+80(SB), X7;  \
	MOVUPS ·actLanes+96(SB), X8;  \
	MOVUPS ·actLanes+112(SB), X9; \
	MOVUPS ·actLanes+128(SB), X10; \
	MOVUPS ·actLanes+160(SB), X11; \
	MOVUPS ·actLanes+176(SB), X12; \
	MOVUPS ·actLanes+192(SB), X13

// TANH4 sets X2 = Tanh32 of each lane of X0; it clobbers X0 and X1. In order:
// X1 = min(clamp, x) and X0 = max(-clamp, X1), the clamped x; X1 = x²;
// X2 = p = (((((x²·a13 + a11)·x² + a9)·x² + a7)·x² + a5)·x² + a3)·x² + a1,
// then p·x; X0 = q = ((x²·b6 + b4)·x² + b2)·x² + b0; X2 = p/q. MINPS and
// MAXPS return their second (source) operand when either is NaN, so the
// argument goes second and a NaN lane survives the clamp.
#define TANH4 \
	MOVUPS X3, X1;                 \
	MINPS  X0, X1;                 \
	MOVUPS X4, X0;                 \
	MAXPS  X1, X0;                 \
	MOVUPS X0, X1;                 \
	MULPS  X0, X1;                 \
	MOVUPS ·actLanes+32(SB), X2;   \
	MULPS  X1, X2;                 \
	ADDPS  X5, X2;                 \
	MULPS  X1, X2;                 \
	ADDPS  X6, X2;                 \
	MULPS  X1, X2;                 \
	ADDPS  X7, X2;                 \
	MULPS  X1, X2;                 \
	ADDPS  X8, X2;                 \
	MULPS  X1, X2;                 \
	ADDPS  X9, X2;                 \
	MULPS  X1, X2;                 \
	ADDPS  X10, X2;                \
	MULPS  X0, X2;                 \
	MOVUPS ·actLanes+144(SB), X0;  \
	MULPS  X1, X0;                 \
	ADDPS  X11, X0;                \
	MULPS  X1, X0;                 \
	ADDPS  X12, X0;                \
	MULPS  X1, X0;                 \
	ADDPS  X13, X0;                \
	DIVPS  X0, X2

// func tanhLanes(dst, src []float32)
TEXT ·tanhLanes(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	LOADTANH
	XORQ AX, AX

loop:
	CMPQ   CX, $4
	JLT    done
	MOVUPS (SI)(AX*1), X0
	TANH4
	MOVUPS X2, (DI)(AX*1)
	ADDQ   $16, AX
	SUBQ   $4, CX
	JMP    loop

done:
	RET

// func sigmoidLanes(dst, src []float32)
//
// 0.5 + 0.5·tanh(0.5·x): one multiply before TANH4, a multiply and an add
// after it.
TEXT ·sigmoidLanes(SB), NOSPLIT, $0-48
	MOVQ   dst_base+0(FP), DI
	MOVQ   src_base+24(FP), SI
	MOVQ   src_len+32(FP), CX
	LOADTANH
	MOVUPS ·actLanes+208(SB), X14
	XORQ   AX, AX

loop:
	CMPQ   CX, $4
	JLT    done
	MOVUPS (SI)(AX*1), X0
	MULPS  X14, X0
	TANH4
	MULPS  X14, X2
	ADDPS  X14, X2
	MOVUPS X2, (DI)(AX*1)
	ADDQ   $16, AX
	SUBQ   $4, CX
	JMP    loop

done:
	RET
