//go:build amd64 && !purego

#include "textflag.h"

// The AVX2 halves of axpy and scal (vec.go). Each element sees exactly the
// operations of the Go loop it replaces: one rounded VMULPD, then, for axpy,
// one rounded VADDPD. There is no FMA, so every lane computes the bits the
// scalar loop computes. The operands are also in gc's order — x*t, then
// product+y — which decides the payload when both inputs of an operation
// are NaN. The Go wrappers have already checked the bounds and cut y to
// len(x); nothing here reads or writes past len(x).

// func axpyVec(t float64, x, y []float64)
TEXT ·axpyVec(SB), NOSPLIT, $0-56
	MOVQ         x_base+8(FP), SI
	MOVQ         x_len+16(FP), CX
	MOVQ         y_base+32(FP), DI
	VBROADCASTSD t+0(FP), Y0
	XORQ         AX, AX
	MOVQ         CX, BX
	ANDQ         $-16, BX
	JZ           axpy4

axpy16:
	VMOVUPD (SI)(AX*8), Y1
	VMOVUPD 32(SI)(AX*8), Y2
	VMOVUPD 64(SI)(AX*8), Y3
	VMOVUPD 96(SI)(AX*8), Y4
	VMULPD  Y0, Y1, Y1
	VMULPD  Y0, Y2, Y2
	VMULPD  Y0, Y3, Y3
	VMULPD  Y0, Y4, Y4
	VADDPD  (DI)(AX*8), Y1, Y1
	VADDPD  32(DI)(AX*8), Y2, Y2
	VADDPD  64(DI)(AX*8), Y3, Y3
	VADDPD  96(DI)(AX*8), Y4, Y4
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	VMOVUPD Y3, 64(DI)(AX*8)
	VMOVUPD Y4, 96(DI)(AX*8)
	ADDQ    $16, AX
	CMPQ    AX, BX
	JLT     axpy16

axpy4:
	MOVQ CX, BX
	ANDQ $-4, BX
	CMPQ AX, BX
	JGE  axpy1

axpy4loop:
	VMOVUPD (SI)(AX*8), Y1
	VMULPD  Y0, Y1, Y1
	VADDPD  (DI)(AX*8), Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, BX
	JLT     axpy4loop

axpy1:
	CMPQ AX, CX
	JGE  axpydone

axpy1loop:
	VMOVSD (SI)(AX*8), X1
	VMULSD X0, X1, X1
	VADDSD (DI)(AX*8), X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ   AX
	CMPQ   AX, CX
	JLT    axpy1loop

axpydone:
	VZEROUPPER
	RET

// func scalVec(d float64, x []float64)
TEXT ·scalVec(SB), NOSPLIT, $0-32
	MOVQ         x_base+8(FP), DI
	MOVQ         x_len+16(FP), CX
	VBROADCASTSD d+0(FP), Y0
	XORQ         AX, AX
	MOVQ         CX, BX
	ANDQ         $-16, BX
	JZ           scal4

scal16:
	VMOVUPD (DI)(AX*8), Y1
	VMOVUPD 32(DI)(AX*8), Y2
	VMOVUPD 64(DI)(AX*8), Y3
	VMOVUPD 96(DI)(AX*8), Y4
	VMULPD  Y0, Y1, Y1
	VMULPD  Y0, Y2, Y2
	VMULPD  Y0, Y3, Y3
	VMULPD  Y0, Y4, Y4
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	VMOVUPD Y3, 64(DI)(AX*8)
	VMOVUPD Y4, 96(DI)(AX*8)
	ADDQ    $16, AX
	CMPQ    AX, BX
	JLT     scal16

scal4:
	MOVQ CX, BX
	ANDQ $-4, BX
	CMPQ AX, BX
	JGE  scal1

scal4loop:
	VMOVUPD (DI)(AX*8), Y1
	VMULPD  Y0, Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, BX
	JLT     scal4loop

scal1:
	CMPQ AX, CX
	JGE  scaldone

scal1loop:
	VMOVSD (DI)(AX*8), X1
	VMULSD X0, X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ   AX
	CMPQ   AX, CX
	JLT    scal1loop

scaldone:
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// The AVX-512 register tile under gemmNT, the Syrk Lower rectangle and the
// Right/Lower/Transpose Trsm (blas.go; tile in vec.go). It holds a 16-row ×
// 8-column block of C in Z0–Z15 across the whole inner dimension: for each
// step l it loads the 16 rows of column l of A (row-masked through K1/K2 in
// the last block, which also masks the loads and stores of C), forms the 8
// multipliers t_j from row l of B — t = b·α, or −b when neg is set, each the
// operation gc emits for the Go loop — and adds x·t_j to column j. As in
// axpyVec each element sees one rounded VMULPD (x·t) then one rounded
// VADDPD (product + c), never an FMA, in ascending l. A column whose t_j is
// ±0 at step l skips that step, as the Go loops' `if t == 0 { continue }`
// does: the multipliers are compared with zero as a vector and any hit
// sends the step through the per-column path. The Go wrapper has checked
// that a[(k-1)·lda+m-1], b[(k-1)·ldb+7] and c[7·ldc+m-1] exist and that
// m, k ≥ 1; masked-off lanes neither fault nor store.

// UPDATE adds x·t to one column of the tile: t is the broadcast multiplier
// at off(SP), x the A column in Z16 (rows 0–7) and Z17 (rows 8–15).
#define UPDATE(off, lo, hi) \
	VMULPD.BCST off(SP), Z16, Z18; \
	VMULPD.BCST off(SP), Z17, Z19; \
	VADDPD      lo, Z18, lo; \
	VADDPD      hi, Z19, hi

// func tileVec(m, k int, alpha float64, neg bool, a []float64, lda int, b []float64, ldb int, c []float64, ldc int)
TEXT ·tileVec(SB), NOSPLIT, $64-128
	MOVQ         m+0(FP), CX
	MOVQ         a_base+32(FP), SI
	MOVQ         lda+56(FP), R8
	SHLQ         $3, R8
	MOVQ         ldb+88(FP), R9
	SHLQ         $3, R9
	MOVQ         c_base+96(FP), DI
	MOVQ         ldc+120(FP), R10
	SHLQ         $3, R10
	LEAQ         (R10)(R10*2), R13
	VBROADCASTSD alpha+16(FP), Z30
	MOVQ         $0x8000000000000000, AX
	VPBROADCASTQ AX, Z29
	VPXORQ       Z31, Z31, Z31

rowblock:
	// K1 masks rows 0–7 of the block, K2 rows 8–15.
	MOVL  $0xFFFF, R11
	CMPQ  CX, $16
	JGE   masks
	MOVL  $1, R11
	SHLL  CX, R11
	DECL  R11

masks:
	KMOVW R11, K1
	SHRL  $8, R11
	KMOVW R11, K2

	// C columns 0–3 are at DI + {0,1,2,3}·ldc, columns 4–7 at R12 + the same.
	LEAQ      (DI)(R10*4), R12
	VMOVUPD.Z (DI), K1, Z0
	VMOVUPD.Z 64(DI), K2, Z1
	VMOVUPD.Z (DI)(R10*1), K1, Z2
	VMOVUPD.Z 64(DI)(R10*1), K2, Z3
	VMOVUPD.Z (DI)(R10*2), K1, Z4
	VMOVUPD.Z 64(DI)(R10*2), K2, Z5
	VMOVUPD.Z (DI)(R13*1), K1, Z6
	VMOVUPD.Z 64(DI)(R13*1), K2, Z7
	VMOVUPD.Z (R12), K1, Z8
	VMOVUPD.Z 64(R12), K2, Z9
	VMOVUPD.Z (R12)(R10*1), K1, Z10
	VMOVUPD.Z 64(R12)(R10*1), K2, Z11
	VMOVUPD.Z (R12)(R10*2), K1, Z12
	VMOVUPD.Z 64(R12)(R10*2), K2, Z13
	VMOVUPD.Z (R12)(R13*1), K1, Z14
	VMOVUPD.Z 64(R12)(R13*1), K2, Z15

	MOVQ SI, AX
	MOVQ b_base+64(FP), BX
	MOVQ k+8(FP), DX

step:
	VMOVUPD (BX), Z20
	CMPB    neg+24(FP), $0
	JNE     negate
	VMULPD  Z30, Z20, Z20
	JMP     multipliers

negate:
	VPXORQ Z29, Z20, Z20

multipliers:
	VCMPPD    $0, Z31, Z20, K3
	KMOVW     K3, R11
	VMOVUPD   Z20, (SP)
	VMOVUPD.Z (AX), K1, Z16
	VMOVUPD.Z 64(AX), K2, Z17
	TESTL     R11, R11
	JNZ       sparse
	UPDATE(0, Z0, Z1)
	UPDATE(8, Z2, Z3)
	UPDATE(16, Z4, Z5)
	UPDATE(24, Z6, Z7)
	UPDATE(32, Z8, Z9)
	UPDATE(40, Z10, Z11)
	UPDATE(48, Z12, Z13)
	UPDATE(56, Z14, Z15)

next:
	ADDQ R8, AX
	ADDQ R9, BX
	DECQ DX
	JNZ  step

	VMOVUPD Z0, K1, (DI)
	VMOVUPD Z1, K2, 64(DI)
	VMOVUPD Z2, K1, (DI)(R10*1)
	VMOVUPD Z3, K2, 64(DI)(R10*1)
	VMOVUPD Z4, K1, (DI)(R10*2)
	VMOVUPD Z5, K2, 64(DI)(R10*2)
	VMOVUPD Z6, K1, (DI)(R13*1)
	VMOVUPD Z7, K2, 64(DI)(R13*1)
	VMOVUPD Z8, K1, (R12)
	VMOVUPD Z9, K2, 64(R12)
	VMOVUPD Z10, K1, (R12)(R10*1)
	VMOVUPD Z11, K2, 64(R12)(R10*1)
	VMOVUPD Z12, K1, (R12)(R10*2)
	VMOVUPD Z13, K2, 64(R12)(R10*2)
	VMOVUPD Z14, K1, (R12)(R13*1)
	VMOVUPD Z15, K2, 64(R12)(R13*1)

	ADDQ $128, SI
	ADDQ $128, DI
	SUBQ $16, CX
	JG   rowblock

	// Nonzero upper halves of any ZMM register can hold a core in its
	// 512-bit execution state for the scalar code that follows, and
	// VZEROUPPER cleans Z0–Z15 only: the EVEX writes to X16–X30 zero the
	// upper halves of the high registers this kernel used.
	VPXORQ     X16, X16, X16
	VPXORQ     X17, X17, X17
	VPXORQ     X18, X18, X18
	VPXORQ     X19, X19, X19
	VPXORQ     X20, X20, X20
	VPXORQ     X29, X29, X29
	VPXORQ     X30, X30, X30
	VZEROUPPER
	RET

	// Some t_j is ±0 at this step: bit j of R11 is set for each such
	// column, which skips its update.
sparse:
	BTL $0, R11
	JCS sparse1
	UPDATE(0, Z0, Z1)

sparse1:
	BTL $1, R11
	JCS sparse2
	UPDATE(8, Z2, Z3)

sparse2:
	BTL $2, R11
	JCS sparse3
	UPDATE(16, Z4, Z5)

sparse3:
	BTL $3, R11
	JCS sparse4
	UPDATE(24, Z6, Z7)

sparse4:
	BTL $4, R11
	JCS sparse5
	UPDATE(32, Z8, Z9)

sparse5:
	BTL $5, R11
	JCS sparse6
	UPDATE(40, Z10, Z11)

sparse6:
	BTL $6, R11
	JCS sparse7
	UPDATE(48, Z12, Z13)

sparse7:
	BTL $7, R11
	JCS next
	UPDATE(56, Z14, Z15)
	JMP next
