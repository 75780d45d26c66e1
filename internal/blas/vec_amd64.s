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
