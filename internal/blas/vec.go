package blas

// vectorMin is the shortest operand axpy and scal hand to the assembly
// kernels; below it the call costs more than the Go loop it replaces
// (EXPERIMENTS.md "Vector axpy", cutoff sweep of BenchmarkAxpy).
const vectorMin = 4

// axpy computes y += t*x over the first len(x) elements of y. Every
// axpy-shaped loop in the package runs through it; y − t·x is axpy(−t, x, y),
// which is the same bits, since negation is exact and y + (−p) ≡ y − p in
// IEEE 754. Bounds are checked here, so the assembly never needs to.
func axpy(t float64, x, y []float64) {
	if len(x) == 0 {
		return
	}
	y = y[:len(x)]
	if useVector && len(x) >= vectorMin {
		axpyVec(t, x, y)
		return
	}
	axpyGo(t, x, y)
}

// scal computes x *= d.
func scal(d float64, x []float64) {
	if useVector && len(x) >= vectorMin {
		scalVec(d, x)
		return
	}
	scalGo(d, x)
}

// tileN is the width of the register tile: the columns of C one tile call
// holds.
const tileN = 8

// tile updates one group of tileN columns of C through the register tile:
// for l = 0, 1, …, k−1 and each column j < tileN it adds t·a[:m, l] to
// c[:m, j], with t = alpha·b[j+l·ldb], or −b[j+l·ldb] when neg, and skips
// the step when t is ±0. Per element that is the sequence the loop
// `axpy(t, a[l·lda:l·lda+m], c[j·ldc:j·ldc+m])` over ascending l runs, so
// the bits are the axpy path's. Callers run it only when useTile is set.
// Bounds are checked here, so the assembly never needs to.
func tile(m, k int, alpha float64, neg bool, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	if m == 0 || k == 0 {
		return
	}
	_ = a[(k-1)*lda+m-1]
	_ = b[(k-1)*ldb+tileN-1]
	_ = c[(tileN-1)*ldc+m-1]
	tileVec(m, k, alpha, neg, a, lda, b, ldb, c, ldc)
}

// axpyGo is the portable axpy and the oracle the assembly is tested
// against. The conversion keeps the product rounded on its own: without it
// gc fuses the multiply and the add into one FMA on arm64, and the factor
// would differ in bits from the amd64 one.
func axpyGo(t float64, x, y []float64) {
	y = y[:len(x)]
	for i, xv := range x {
		y[i] += float64(t * xv)
	}
}

func scalGo(d float64, x []float64) {
	for i := range x {
		x[i] *= d
	}
}
