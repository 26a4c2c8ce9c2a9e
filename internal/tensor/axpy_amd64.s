#include "textflag.h"

// SSE2 only (GOAMD64=v1): MOVUPS/MOVAPS/MOVSS, MULPS/MULSS, ADDPS/ADDSS,
// SHUFPS. No FMA: each element gets one rounded multiply, then one rounded
// add, as in the Go loops of axpy.go. All memory accesses are unaligned (rows
// start at arbitrary float offsets), so packed arithmetic never takes a memory
// operand. AX is the byte offset into every row, CX the floats left.

// func axpy1(o, b []float32, v float32)
TEXT ·axpy1(SB), NOSPLIT, $0-52
	MOVQ   o_base+0(FP), DI
	MOVQ   b_base+24(FP), SI
	MOVQ   b_len+32(FP), CX
	MOVSS  v+48(FP), X0
	SHUFPS $0, X0, X0
	XORQ   AX, AX

loop16:
	CMPQ   CX, $16
	JLT    loop4
	MOVUPS (SI)(AX*1), X1
	MOVUPS 16(SI)(AX*1), X2
	MOVUPS 32(SI)(AX*1), X3
	MOVUPS 48(SI)(AX*1), X4
	MULPS  X0, X1
	MULPS  X0, X2
	MULPS  X0, X3
	MULPS  X0, X4
	MOVUPS (DI)(AX*1), X5
	MOVUPS 16(DI)(AX*1), X6
	MOVUPS 32(DI)(AX*1), X7
	MOVUPS 48(DI)(AX*1), X8
	ADDPS  X1, X5
	ADDPS  X2, X6
	ADDPS  X3, X7
	ADDPS  X4, X8
	MOVUPS X5, (DI)(AX*1)
	MOVUPS X6, 16(DI)(AX*1)
	MOVUPS X7, 32(DI)(AX*1)
	MOVUPS X8, 48(DI)(AX*1)
	ADDQ   $64, AX
	SUBQ   $16, CX
	JMP    loop16

loop4:
	CMPQ   CX, $4
	JLT    loop1
	MOVUPS (SI)(AX*1), X1
	MULPS  X0, X1
	MOVUPS (DI)(AX*1), X5
	ADDPS  X1, X5
	MOVUPS X5, (DI)(AX*1)
	ADDQ   $16, AX
	SUBQ   $4, CX
	JMP    loop4

loop1:
	TESTQ CX, CX
	JLE   done
	MOVSS (SI)(AX*1), X1
	MULSS X0, X1
	MOVSS (DI)(AX*1), X5
	ADDSS X1, X5
	MOVSS X5, (DI)(AX*1)
	ADDQ  $4, AX
	DECQ  CX
	JMP   loop1

done:
	RET

// func axpy1x4(o, b0, b1, b2, b3 []float32, v0, v1, v2, v3 float32)
//
// o[j] = (((o[j] + v0*b0[j]) + v1*b1[j]) + v2*b2[j]) + v3*b3[j]: four axpy1
// calls with o held in X4..X7 between them, so o is loaded and stored once
// per four terms. Operand order of every MULPS/ADDPS is axpy1's.
TEXT ·axpy1x4(SB), NOSPLIT, $0-136
	MOVQ   o_base+0(FP), DI
	MOVQ   b0_base+24(FP), R8
	MOVQ   b0_len+32(FP), CX
	MOVQ   b1_base+48(FP), R9
	MOVQ   b2_base+72(FP), R10
	MOVQ   b3_base+96(FP), R11
	MOVSS  v0+120(FP), X0
	MOVSS  v1+124(FP), X1
	MOVSS  v2+128(FP), X2
	MOVSS  v3+132(FP), X3
	SHUFPS $0, X0, X0
	SHUFPS $0, X1, X1
	SHUFPS $0, X2, X2
	SHUFPS $0, X3, X3
	XORQ   AX, AX

// TERM16 does X4..X7 += s*row[AX:AX+64] for one row of b.
#define TERM16(s, row) \
	MOVUPS (row)(AX*1), X8;    \
	MOVUPS 16(row)(AX*1), X9;  \
	MOVUPS 32(row)(AX*1), X10; \
	MOVUPS 48(row)(AX*1), X11; \
	MULPS  s, X8;              \
	MULPS  s, X9;              \
	MULPS  s, X10;             \
	MULPS  s, X11;             \
	ADDPS  X8, X4;             \
	ADDPS  X9, X5;             \
	ADDPS  X10, X6;            \
	ADDPS  X11, X7

// TERM4 is TERM16 for four floats accumulated in X4.
#define TERM4(s, row) \
	MOVUPS (row)(AX*1), X8; \
	MULPS  s, X8;           \
	ADDPS  X8, X4

// TERM1 is TERM16 for one float accumulated in the low lane of X4.
#define TERM1(s, row) \
	MOVSS (row)(AX*1), X8; \
	MULSS s, X8;           \
	ADDSS X8, X4

loop16:
	CMPQ   CX, $16
	JLT    loop4
	MOVUPS (DI)(AX*1), X4
	MOVUPS 16(DI)(AX*1), X5
	MOVUPS 32(DI)(AX*1), X6
	MOVUPS 48(DI)(AX*1), X7
	TERM16(X0, R8)
	TERM16(X1, R9)
	TERM16(X2, R10)
	TERM16(X3, R11)
	MOVUPS X4, (DI)(AX*1)
	MOVUPS X5, 16(DI)(AX*1)
	MOVUPS X6, 32(DI)(AX*1)
	MOVUPS X7, 48(DI)(AX*1)
	ADDQ   $64, AX
	SUBQ   $16, CX
	JMP    loop16

loop4:
	CMPQ   CX, $4
	JLT    loop1
	MOVUPS (DI)(AX*1), X4
	TERM4(X0, R8)
	TERM4(X1, R9)
	TERM4(X2, R10)
	TERM4(X3, R11)
	MOVUPS X4, (DI)(AX*1)
	ADDQ   $16, AX
	SUBQ   $4, CX
	JMP    loop4

loop1:
	TESTQ CX, CX
	JLE   done
	MOVSS (DI)(AX*1), X4
	TERM1(X0, R8)
	TERM1(X1, R9)
	TERM1(X2, R10)
	TERM1(X3, R11)
	MOVSS X4, (DI)(AX*1)
	ADDQ  $4, AX
	DECQ  CX
	JMP   loop1

done:
	RET

// func axpy4(o0, o1, o2, o3, b []float32, v0, v1, v2, v3 float32)
TEXT ·axpy4(SB), NOSPLIT, $0-136
	MOVQ   o0_base+0(FP), R8
	MOVQ   o1_base+24(FP), R9
	MOVQ   o2_base+48(FP), R10
	MOVQ   o3_base+72(FP), R11
	MOVQ   b_base+96(FP), SI
	MOVQ   b_len+104(FP), CX
	MOVSS  v0+120(FP), X0
	MOVSS  v1+124(FP), X1
	MOVSS  v2+128(FP), X2
	MOVSS  v3+132(FP), X3
	SHUFPS $0, X0, X0
	SHUFPS $0, X1, X1
	SHUFPS $0, X2, X2
	SHUFPS $0, X3, X3
	XORQ   AX, AX

// ROW8 does row[AX:AX+32] += s*b for one output row: X4/X5 hold eight floats
// of b, s is the row's broadcast scalar.
#define ROW8(s, row) \
	MOVAPS X4, X6;            \
	MOVAPS X5, X7;            \
	MULPS  s, X6;             \
	MULPS  s, X7;             \
	MOVUPS (row)(AX*1), X8;   \
	MOVUPS 16(row)(AX*1), X9; \
	ADDPS  X6, X8;            \
	ADDPS  X7, X9;            \
	MOVUPS X8, (row)(AX*1);   \
	MOVUPS X9, 16(row)(AX*1)

// ROW4 is ROW8 for four floats of b in X4.
#define ROW4(s, row) \
	MOVAPS X4, X6;          \
	MULPS  s, X6;           \
	MOVUPS (row)(AX*1), X8; \
	ADDPS  X6, X8;          \
	MOVUPS X8, (row)(AX*1)

// ROW1 is ROW8 for one float of b in the low lane of X4.
#define ROW1(s, row) \
	MOVAPS X4, X6;         \
	MULSS  s, X6;          \
	MOVSS  (row)(AX*1), X8; \
	ADDSS  X6, X8;         \
	MOVSS  X8, (row)(AX*1)

loop8:
	CMPQ   CX, $8
	JLT    loop4
	MOVUPS (SI)(AX*1), X4
	MOVUPS 16(SI)(AX*1), X5
	ROW8(X0, R8)
	ROW8(X1, R9)
	ROW8(X2, R10)
	ROW8(X3, R11)
	ADDQ   $32, AX
	SUBQ   $8, CX
	JMP    loop8

loop4:
	CMPQ   CX, $4
	JLT    loop1
	MOVUPS (SI)(AX*1), X4
	ROW4(X0, R8)
	ROW4(X1, R9)
	ROW4(X2, R10)
	ROW4(X3, R11)
	ADDQ   $16, AX
	SUBQ   $4, CX
	JMP    loop4

loop1:
	TESTQ CX, CX
	JLE   done
	MOVSS (SI)(AX*1), X4
	ROW1(X0, R8)
	ROW1(X1, R9)
	ROW1(X2, R10)
	ROW1(X3, R11)
	ADDQ  $4, AX
	DECQ  CX
	JMP   loop1

done:
	RET
