//go:build amd64 && !purego

#include "textflag.h"

// The AVX-512 bodies of the interleaved-RHS kernels (rhs.go). Each call
// runs one group of up to 8 right-hand sides, one per lane of a ZMM
// register; K1 masks the group's lanes, so the loads and stores of a
// group narrower than 8 neither read nor write past it (a masked lane does
// not fault either). Every lane computes its element's scalar
// sequence: one rounded VMULPD, then one rounded VADDPD or VSUBPD, never
// an FMA, in the Go loop's order, with gc's operands — w·a and p + s in
// gemmTNVec, x·a, s − p and s / a in trsmLTVec. The Go wrappers have
// checked the bounds.

// LANEMASK sets the low n bits of K1, n being the argument at off(FP).
#define LANEMASK(off) \
	MOVQ  off(FP), CX; \
	MOVL  $1, R11; \
	SHLL  CX, R11; \
	DECL  R11; \
	KMOVW R11, K1

// func gemmTNVec(n, m int, a []float64, lda int, w []float64, c []float64, ld, lanes int)
//
// C[c, :] −= Σ_x A[x, c]·W[x, :], four columns c at a time so that four
// independent add chains overlap, then one at a time. The sums start at +0
// and take the products in ascending x. The wrapper runs m = 0 in Go, so
// W has a row here.
TEXT ·gemmTNVec(SB), NOSPLIT, $0-112
	LANEMASK(lanes+104)
	MOVQ n+0(FP), CX
	MOVQ m+8(FP), DX
	MOVQ a_base+16(FP), SI
	MOVQ lda+40(FP), R8
	SHLQ $3, R8
	MOVQ c_base+72(FP), R10
	MOVQ ld+96(FP), R9
	SHLQ $3, R9
	CMPQ CX, $4
	JLT  tn1

tn4:
	// Columns c…c+3 of A are at SI, R11, R12, R13.
	LEAQ   (SI)(R8*1), R11
	LEAQ   (SI)(R8*2), R12
	LEAQ   (R11)(R8*2), R13
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	MOVQ   w_base+48(FP), BX
	XORQ   AX, AX

tn4step:
	VMOVUPD.Z   (BX), K1, Z8
	VMULPD.BCST (SI)(AX*8), Z8, Z4
	VMULPD.BCST (R11)(AX*8), Z8, Z5
	VMULPD.BCST (R12)(AX*8), Z8, Z6
	VMULPD.BCST (R13)(AX*8), Z8, Z7
	VADDPD      Z0, Z4, Z0
	VADDPD      Z1, Z5, Z1
	VADDPD      Z2, Z6, Z2
	VADDPD      Z3, Z7, Z3
	ADDQ        R9, BX
	INCQ        AX
	CMPQ        AX, DX
	JLT         tn4step

	// Rows c…c+3 of C are at R10, R10+R9, DI, DI+R9.
	LEAQ      (R10)(R9*2), DI
	VMOVUPD.Z (R10), K1, Z4
	VMOVUPD.Z (R10)(R9*1), K1, Z5
	VMOVUPD.Z (DI), K1, Z6
	VMOVUPD.Z (DI)(R9*1), K1, Z7
	VSUBPD    Z0, Z4, Z4
	VSUBPD    Z1, Z5, Z5
	VSUBPD    Z2, Z6, Z6
	VSUBPD    Z3, Z7, Z7
	VMOVUPD   Z4, K1, (R10)
	VMOVUPD   Z5, K1, (R10)(R9*1)
	VMOVUPD   Z6, K1, (DI)
	VMOVUPD   Z7, K1, (DI)(R9*1)
	LEAQ      (SI)(R8*4), SI
	LEAQ      (R10)(R9*4), R10
	SUBQ      $4, CX
	CMPQ      CX, $4
	JGE       tn4

tn1:
	TESTQ CX, CX
	JZ    tndone

tn1col:
	VPXORQ Z0, Z0, Z0
	MOVQ   w_base+48(FP), BX
	XORQ   AX, AX

tn1step:
	VMOVUPD.Z   (BX), K1, Z8
	VMULPD.BCST (SI)(AX*8), Z8, Z4
	VADDPD      Z0, Z4, Z0
	ADDQ        R9, BX
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
