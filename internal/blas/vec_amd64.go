//go:build amd64 && !purego

package blas

// useVector selects the AVX2 kernels of vec_amd64.s. It is set once, from
// the CPU, and read-only afterwards except in the package's own tests,
// which flip it to compare the two paths.
var useVector = hasAVX2()

// useTile selects the AVX-512 register tile of vec_amd64.s under gemmNT,
// the Syrk Lower rectangle and the Right/Lower/Transpose Trsm, and the
// interleaved-RHS kernels of rhs_amd64.s. Like useVector it is set once,
// from the CPU, and flipped only by the tests.
var useTile = hasAVX512()

//go:noescape
func axpyVec(t float64, x, y []float64)

//go:noescape
func scalVec(d float64, x []float64)

//go:noescape
func tileVec(m, k int, alpha float64, neg bool, a []float64, lda int, b []float64, ldb int, c []float64, ldc int)

//go:noescape
func gemmNNVec(k int, a []float64, lda int, t []float64, rows []int32, y []float64, ld, lanes int)

//go:noescape
func gemmTNVec(n int, a []float64, lda int, rows []int32, w []float64, c []float64, ld, lanes int)

//go:noescape
func trsmLNVec(m int, a []float64, lda int, b []float64, ld, lanes int)

//go:noescape
func trsmLTVec(m int, a []float64, lda int, b []float64, ld, lanes int)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// hasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM state:
// CPUID.1:ECX OSXSAVE and AVX, XCR0 SSE and AVX state, CPUID.7:EBX AVX2.
func hasAVX2() bool {
	if maxID, _, _, _ := cpuid(0, 0); maxID < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// hasAVX512 reports whether the CPU has AVX-512F and the OS saves the
// opmask and ZMM state too: hasAVX2, XCR0 opmask, ZMM_Hi256 and Hi16_ZMM
// on top of SSE and AVX (XCR0 & 0xE6), and CPUID.7:EBX AVX512F.
func hasAVX512() bool {
	if !hasAVX2() {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&0xe6 != 0xe6 {
		return false
	}
	const avx512f = 1 << 16
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx512f != 0
}
