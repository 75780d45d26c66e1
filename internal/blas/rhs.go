package blas

// The right-hand-side-interleaved kernels. A block of right-hand sides is
// stored row by row: element (x, j) — row x, right-hand side j — lives at
// w[x·ld + j], so one row's right-hand sides are contiguous. The row
// stride ld is at least nrhs; the kernels touch no lane j ≥ nrhs.
//
// Both kernels keep, per element, the operation sequence of the scalar
// loop that computes that element alone. A vector lane holds one
// right-hand side, and right-hand sides never mix, so RHSLanes of them
// run per instruction with no reduction split or reordered. On amd64 CPUs
// with AVX-512F (useTile) each group of RHSLanes right-hand sides runs in
// rhs_amd64.s; elsewhere, under purego and on CPUs without it, the Go
// loops below run, which are also the tests' oracle.

// RHSLanes is the number of right-hand sides one vector register holds.
const RHSLanes = 8

// GemmTNInterleaved computes C[c, j] −= Σ_x A[x, c]·W[x, j] for c < n and
// j < nrhs, where A is m×n column-major (leading dimension lda) and W
// (m rows) and C (n rows) are interleaved with row stride ld. Per element
// the products are rounded apart, summed from +0 in ascending x and the sum
// subtracted: the sequence of Gemm(Transpose, NoTrans, …, α = −1, β = 1)
// through gemmTN's dot, and of the loop `s += A[x,c]·W[x,j]; C[c,j] −= s`.
func GemmTNInterleaved(n, m, nrhs int, a []float64, lda int, w []float64, c []float64, ld int) {
	checkDims(n >= 0 && m >= 0 && nrhs >= 0, "GemmTNInterleaved: negative dimension n=%d m=%d nrhs=%d", n, m, nrhs)
	checkDims(lda >= max(1, m), "GemmTNInterleaved: lda=%d < m=%d", lda, m)
	checkDims(ld >= max(1, nrhs), "GemmTNInterleaved: ld=%d < nrhs=%d", ld, nrhs)
	if n == 0 || nrhs == 0 {
		return
	}
	_ = c[(n-1)*ld+nrhs-1]
	if m > 0 {
		_ = a[(n-1)*lda+m-1]
		_ = w[(m-1)*ld+nrhs-1]
	}
	if !useTile || m == 0 {
		gemmTNInterleavedGo(n, m, nrhs, a, lda, w, c, ld)
		return
	}
	for g := 0; g < nrhs; g += RHSLanes {
		gemmTNVec(n, m, a, lda, w[g:], c[g:], ld, min(RHSLanes, nrhs-g))
	}
}

// TrsmLTInterleaved solves Lᵀ·X = B in place for nrhs interleaved
// right-hand sides, where L is m×m lower triangular (leading dimension
// lda) and B has m rows of stride ld. Per element it runs Trsm(Left,
// Lower, Transpose)'s sequence: s = b_i, s −= L[r,i]·x_r for ascending
// r > i, then x_i = s / L[i,i], for i from m−1 down to 0.
func TrsmLTInterleaved(m, nrhs int, a []float64, lda int, b []float64, ld int) {
	checkDims(m >= 0 && nrhs >= 0, "TrsmLTInterleaved: negative dimension m=%d nrhs=%d", m, nrhs)
	checkDims(lda >= max(1, m), "TrsmLTInterleaved: lda=%d < m=%d", lda, m)
	checkDims(ld >= max(1, nrhs), "TrsmLTInterleaved: ld=%d < nrhs=%d", ld, nrhs)
	if m == 0 || nrhs == 0 {
		return
	}
	_ = a[(m-1)*lda+m-1]
	_ = b[(m-1)*ld+nrhs-1]
	if !useTile {
		trsmLTInterleavedGo(m, nrhs, a, lda, b, ld)
		return
	}
	for g := 0; g < nrhs; g += RHSLanes {
		trsmLTVec(m, a, lda, b[g:], ld, min(RHSLanes, nrhs-g))
	}
}

// gemmTNInterleavedGo is GemmTNInterleaved's Go body: per group of
// RHSLanes right-hand sides and column c, one running sum per lane.
func gemmTNInterleavedGo(n, m, nrhs int, a []float64, lda int, w []float64, c []float64, ld int) {
	for g := 0; g < nrhs; g += RHSLanes {
		lanes := min(RHSLanes, nrhs-g)
		for col := 0; col < n; col++ {
			var s [RHSLanes]float64
			for x, av := range a[col*lda : col*lda+m] {
				for j, wv := range w[x*ld+g : x*ld+g+lanes] {
					s[j] += float64(av * wv)
				}
			}
			for j := range c[col*ld+g : col*ld+g+lanes] {
				c[col*ld+g+j] -= s[j]
			}
		}
	}
}

// trsmLTInterleavedGo is TrsmLTInterleaved's Go body.
func trsmLTInterleavedGo(m, nrhs int, a []float64, lda int, b []float64, ld int) {
	for g := 0; g < nrhs; g += RHSLanes {
		lanes := min(RHSLanes, nrhs-g)
		for i := m - 1; i >= 0; i-- {
			ai := a[i*lda : i*lda+m]
			var s [RHSLanes]float64
			copy(s[:lanes], b[i*ld+g:])
			for r := i + 1; r < m; r++ {
				for j, xv := range b[r*ld+g : r*ld+g+lanes] {
					s[j] -= float64(ai[r] * xv)
				}
			}
			for j := range s[:lanes] {
				b[i*ld+g+j] = s[j] / ai[i]
			}
		}
	}
}
