//go:build amd64 && !purego

package blas

// useVector selects the AVX2 kernels of vec_amd64.s. It is set once, from
// the CPU, and read-only afterwards except in the package's own tests,
// which flip it to compare the two paths.
var useVector = hasAVX2()

//go:noescape
func axpyVec(t float64, x, y []float64)

//go:noescape
func scalVec(d float64, x []float64)

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
