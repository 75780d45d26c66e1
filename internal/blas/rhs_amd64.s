//go:build amd64 && !purego

#include "textflag.h"

// The AVX-512 bodies of the interleaved-RHS kernels (rhs.go). Each call
// runs one group of up to 8 right-hand sides, one per lane of a ZMM
// register; K1 masks the group's lanes, so the loads and stores of a
// group narrower than 8 neither read nor write past it (a masked lane does
// not fault either). Every lane computes its element's scalar
// sequence: one rounded VMULPD, then one rounded VADDPD, VSUBPD or
// VDIVPD, never an FMA, in the Go loop's order, with gc's operands — w·a
// and p + s in gemmTNVec, t·a and y − p in gemmNNVec, b / a, x·a and
// b − p in trsmLNVec, x·a, s − p and s / a in trsmLTVec. Where the Go loop
// skips a step for a zero multiplier, K2 holds the lanes whose multiplier is not ±0 (NEQ_UQ: a NaN
// is not skipped) and the difference merges into those lanes alone. The
// Go wrappers have checked the bounds, row indices included.

// LANEMASK sets the low n bits of K1, n being the argument at off(FP).
#define LANEMASK(off) \
	MOVQ  off(FP), CX; \
	MOVL  $1, R11; \
	SHLL  CX, R11; \
	DECL  R11; \
	KMOVW R11, K1

// ROWADDR sets reg to the address of panel row rows[i]: base + rows[i]·R9,
// R9 being the row stride in bytes and DI the row indices.
#define ROWADDR(i, base, reg) \
	MOVLQSX (i*4)(DI), reg; \
	IMULQ   R9, reg; \
	ADDQ    base, reg

// NNSTEP merges y − t·A[x+i, c] into Zacc, i being the row of the group:
// Z8 holds T[c, :], R11 points at A[x, c].
#define NNSTEP(i, acc) \
	VMULPD.BCST (i*8)(R11), Z8, Z9; \
	VSUBPD      Z9, acc, K2, acc

// func gemmNNVec(k int, a []float64, lda int, t []float64, rows []int32, y []float64, ld, lanes int)
//
// Y[rows[x], :] −= Σ_c A[x, c]·T[c, :] with the zero skip, eight target
// rows x at a time, each held in a register across every c (eight
// independent chains), then one at a time. A row of T whose lanes are all
// ±0 is skipped whole. The wrapper has returned at m = 0 and k = 0.
TEXT ·gemmNNVec(SB), NOSPLIT, $0-128
	LANEMASK(lanes+120)
	MOVQ   k+0(FP), DX
	MOVQ   a_base+8(FP), SI
	MOVQ   lda+32(FP), R8
	SHLQ   $3, R8
	MOVQ   rows_base+64(FP), DI
	MOVQ   rows_len+72(FP), CX
	MOVQ   ld+112(FP), R9
	SHLQ   $3, R9
	VPXORQ Z15, Z15, Z15
	CMPQ   CX, $8
	JLT    nn1

nn8:
	ROWADDR(0, y_base+88(FP), AX)
	VMOVUPD.Z (AX), K1, Z0
	ROWADDR(1, y_base+88(FP), AX)
	VMOVUPD.Z (AX), K1, Z1
	ROWADDR(2, y_base+88(FP), AX)
	VMOVUPD.Z (AX), K1, Z2
	ROWADDR(3, y_base+88(FP), AX)
	VMOVUPD.Z (AX), K1, Z3
	ROWADDR(4, y_base+88(FP), AX)
	VMOVUPD.Z (AX), K1, Z4
	ROWADDR(5, y_base+88(FP), AX)
	VMOVUPD.Z (AX), K1, Z5
	ROWADDR(6, y_base+88(FP), AX)
	VMOVUPD.Z (AX), K1, Z6
	ROWADDR(7, y_base+88(FP), AX)
	VMOVUPD.Z (AX), K1, Z7
	MOVQ      t_base+40(FP), BX
	MOVQ      SI, R11
	MOVQ      DX, R12

nn8step:
	VMOVUPD.Z (BX), K1, Z8
	VCMPPD    $4, Z15, Z8, K1, K2
	KORTESTW  K2, K2
	JZ        nn8next
	NNSTEP(0, Z0)
	NNSTEP(1, Z1)
	NNSTEP(2, Z2)
	NNSTEP(3, Z3)
	NNSTEP(4, Z4)
	NNSTEP(5, Z5)
	NNSTEP(6, Z6)
	NNSTEP(7, Z7)

nn8next:
	ADDQ R9, BX
	ADDQ R8, R11
	DECQ R12
	JNZ  nn8step

	ROWADDR(0, y_base+88(FP), AX)
	VMOVUPD Z0, K1, (AX)
	ROWADDR(1, y_base+88(FP), AX)
	VMOVUPD Z1, K1, (AX)
	ROWADDR(2, y_base+88(FP), AX)
	VMOVUPD Z2, K1, (AX)
	ROWADDR(3, y_base+88(FP), AX)
	VMOVUPD Z3, K1, (AX)
	ROWADDR(4, y_base+88(FP), AX)
	VMOVUPD Z4, K1, (AX)
	ROWADDR(5, y_base+88(FP), AX)
	VMOVUPD Z5, K1, (AX)
	ROWADDR(6, y_base+88(FP), AX)
	VMOVUPD Z6, K1, (AX)
	ROWADDR(7, y_base+88(FP), AX)
	VMOVUPD Z7, K1, (AX)
	ADDQ    $64, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	CMPQ    CX, $8
	JGE     nn8

nn1:
	TESTQ CX, CX
	JZ    nndone

nn1row:
	ROWADDR(0, y_base+88(FP), R13)
	VMOVUPD.Z (R13), K1, Z0
	MOVQ      t_base+40(FP), BX
	MOVQ      SI, R11
	MOVQ      DX, R12

nn1step:
	VMOVUPD.Z (BX), K1, Z8
	VCMPPD    $4, Z15, Z8, K1, K2
	NNSTEP(0, Z0)
	ADDQ      R9, BX
	ADDQ      R8, R11
	DECQ      R12
	JNZ       nn1step

	VMOVUPD Z0, K1, (R13)
	ADDQ    $8, SI
	ADDQ    $4, DI
	DECQ    CX
	JNZ     nn1row

nndone:
	VZEROUPPER
	RET

// func gemmTNVec(n int, a []float64, lda int, rows []int32, w []float64, c []float64, ld, lanes int)
//
// C[c, :] −= Σ_x A[x, c]·W[rows[x], :], eight columns c at a time, so
// that each row of W, read through its index, feeds eight independent add
// chains, then the last n mod 8 one at a time. The sums start at +0 and
// take the products in ascending x. The wrapper runs m = 0 in Go, so rows
// has an entry here.
TEXT ·gemmTNVec(SB), NOSPLIT, $0-128
	LANEMASK(lanes+120)
	MOVQ n+0(FP), CX
	MOVQ rows_len+48(FP), DX
	MOVQ a_base+8(FP), SI
	MOVQ lda+32(FP), R8
	SHLQ $3, R8
	MOVQ rows_base+40(FP), DI
	MOVQ c_base+88(FP), R10
	MOVQ ld+112(FP), R9
	SHLQ $3, R9
	CMPQ CX, $8
	JLT  tn1

tn8:
	// A[x, c+j] is at R11 + j·R8 for j < 2, R12 + (j−2)·R8 for j < 5 and
	// R13 + (j−5)·R8 for j < 8; the three walk down their columns.
	MOVQ   SI, R11
	LEAQ   (SI)(R8*2), R12
	LEAQ   (R12)(R8*2), R13
	ADDQ   R8, R13
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	XORQ   AX, AX

tn8step:
	MOVLQSX     (DI)(AX*4), BX
	IMULQ       R9, BX
	ADDQ        w_base+64(FP), BX
	VMOVUPD.Z   (BX), K1, Z8
	VMULPD.BCST (R11), Z8, Z9
	VMULPD.BCST (R11)(R8*1), Z8, Z10
	VMULPD.BCST (R12), Z8, Z11
	VMULPD.BCST (R12)(R8*1), Z8, Z12
	VADDPD      Z0, Z9, Z0
	VADDPD      Z1, Z10, Z1
	VADDPD      Z2, Z11, Z2
	VADDPD      Z3, Z12, Z3
	VMULPD.BCST (R12)(R8*2), Z8, Z9
	VMULPD.BCST (R13), Z8, Z10
	VMULPD.BCST (R13)(R8*1), Z8, Z11
	VMULPD.BCST (R13)(R8*2), Z8, Z12
	VADDPD      Z4, Z9, Z4
	VADDPD      Z5, Z10, Z5
	VADDPD      Z6, Z11, Z6
	VADDPD      Z7, Z12, Z7
	ADDQ        $8, R11
	ADDQ        $8, R12
	ADDQ        $8, R13
	INCQ        AX
	CMPQ        AX, DX
	JLT         tn8step

	// Rows c…c+7 of C, one after another from R10.
	MOVQ      R10, BX
	VMOVUPD.Z (BX), K1, Z8
	VSUBPD    Z0, Z8, Z8
	VMOVUPD   Z8, K1, (BX)
	ADDQ      R9, BX
	VMOVUPD.Z (BX), K1, Z8
	VSUBPD    Z1, Z8, Z8
	VMOVUPD   Z8, K1, (BX)
	ADDQ      R9, BX
	VMOVUPD.Z (BX), K1, Z8
	VSUBPD    Z2, Z8, Z8
	VMOVUPD   Z8, K1, (BX)
	ADDQ      R9, BX
	VMOVUPD.Z (BX), K1, Z8
	VSUBPD    Z3, Z8, Z8
	VMOVUPD   Z8, K1, (BX)
	ADDQ      R9, BX
	VMOVUPD.Z (BX), K1, Z8
	VSUBPD    Z4, Z8, Z8
	VMOVUPD   Z8, K1, (BX)
	ADDQ      R9, BX
	VMOVUPD.Z (BX), K1, Z8
	VSUBPD    Z5, Z8, Z8
	VMOVUPD   Z8, K1, (BX)
	ADDQ      R9, BX
	VMOVUPD.Z (BX), K1, Z8
	VSUBPD    Z6, Z8, Z8
	VMOVUPD   Z8, K1, (BX)
	ADDQ      R9, BX
	VMOVUPD.Z (BX), K1, Z8
	VSUBPD    Z7, Z8, Z8
	VMOVUPD   Z8, K1, (BX)
	LEAQ      (SI)(R8*8), SI
	LEAQ      (R10)(R9*8), R10
	SUBQ      $8, CX
	CMPQ      CX, $8
	JGE       tn8

tn1:
	TESTQ CX, CX
	JZ    tndone

tn1col:
	VPXORQ Z0, Z0, Z0
	XORQ   AX, AX

tn1step:
	MOVLQSX     (DI)(AX*4), BX
	IMULQ       R9, BX
	ADDQ        w_base+64(FP), BX
	VMOVUPD.Z   (BX), K1, Z8
	VMULPD.BCST (SI)(AX*8), Z8, Z4
	VADDPD      Z0, Z4, Z0
	INCQ        AX
	CMPQ        AX, DX
	JLT         tn1step

	VMOVUPD.Z (R10), K1, Z4
	VSUBPD    Z0, Z4, Z4
	VMOVUPD   Z4, K1, (R10)
	ADDQ      R8, SI
	ADDQ      R9, R10
	DECQ      CX
	JNZ       tn1col

tndone:
	VZEROUPPER
	RET

// func trsmLNVec(m int, a []float64, lda int, b []float64, ld, lanes int)
//
// For r from 0 to m−1: s = b_r; s −= L[r, i]·x_i for i = 0…r−1 in the
// lanes where x_i is not ±0; x_r = s / L[r, r]. Each b_r takes its updates
// in ascending i and then its division, as in Trsm's column loop, but in a
// register, stored once: a row is never reloaded right after a masked store
// to it or, at ld < 8, to the row before, which would stall. Row r of B is
// at R11, row i at BX; L[r, i] is at SI, which walks row r of L. The
// wrapper has returned at m = 0.
TEXT ·trsmLNVec(SB), NOSPLIT, $0-80
	LANEMASK(lanes+72)
	MOVQ   m+0(FP), R12
	MOVQ   a_base+8(FP), R10
	MOVQ   lda+32(FP), R8
	SHLQ   $3, R8
	MOVQ   b_base+40(FP), R11
	MOVQ   ld+64(FP), R9
	SHLQ   $3, R9
	VPXORQ Z15, Z15, Z15
	XORQ   AX, AX

lnr:
	VMOVUPD.Z (R11), K1, Z0
	MOVQ      b_base+40(FP), BX
	LEAQ      (R10)(AX*8), SI
	XORQ      DX, DX
	CMPQ      DX, AX
	JGE       lndiv

lni:
	VMOVUPD.Z   (BX), K1, Z1
	VCMPPD      $4, Z15, Z1, K1, K2
	VMULPD.BCST (SI), Z1, Z2
	VSUBPD      Z2, Z0, K2, Z0
	ADDQ        R9, BX
	ADDQ        R8, SI
	INCQ        DX
	CMPQ        DX, AX
	JLT         lni

lndiv:
	VDIVPD.BCST (SI), Z0, Z0
	VMOVUPD     Z0, K1, (R11)
	ADDQ        R9, R11
	INCQ        AX
	CMPQ        AX, R12
	JLT         lnr
	VZEROUPPER
	RET

// func trsmLTVec(m int, a []float64, lda int, b []float64, ld, lanes int)
//
// For i from m−1 down to 0: s = b_i; s −= L[r, i]·x_r for r = i+1…m−1;
// x_i = s / L[i, i]. Column i of L (R10) holds L[r, i] at r; row i of B
// (R11) is overwritten by x_i. The wrapper has returned at m = 0.
TEXT ·trsmLTVec(SB), NOSPLIT, $0-80
	LANEMASK(lanes+72)
	MOVQ  m+0(FP), R12
	MOVQ  lda+32(FP), R8
	SHLQ  $3, R8
	MOVQ  ld+64(FP), R9
	SHLQ  $3, R9
	LEAQ  -1(R12), AX
	MOVQ  AX, R10
	IMULQ R8, R10
	ADDQ  a_base+8(FP), R10
	MOVQ  AX, R11
	IMULQ R9, R11
	ADDQ  b_base+40(FP), R11

lti:
	VMOVUPD.Z (R11), K1, Z0
	LEAQ      1(AX), DX
	MOVQ      R11, BX
	CMPQ      DX, R12
	JGE       ltdiv

ltr:
	ADDQ        R9, BX
	VMOVUPD.Z   (BX), K1, Z1
	VMULPD.BCST (R10)(DX*8), Z1, Z2
	VSUBPD      Z2, Z0, Z0
	INCQ        DX
	CMPQ        DX, R12
	JLT         ltr

ltdiv:
	VDIVPD.BCST (R10)(AX*8), Z0, Z0
	VMOVUPD     Z0, K1, (R11)
	SUBQ        R8, R10
	SUBQ        R9, R11
	DECQ        AX
	JGE         lti
	VZEROUPPER
	RET
