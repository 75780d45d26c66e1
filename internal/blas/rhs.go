package blas

// The right-hand-side-interleaved kernels. A block of right-hand sides is
// stored row by row: element (x, j) — row x, right-hand side j — lives at
// w[x·ld + j], so one row's right-hand sides are contiguous. The row
// stride ld is at least nrhs; the kernels touch no lane j ≥ nrhs. The two
// Gemm kernels reach the rows of one operand through an index, so they
// read or write a block's rows in place in a whole panel.
//
// Every kernel keeps, per element, the operation sequence of the scalar
// loop that computes that element alone. A vector lane holds one
// right-hand side, and right-hand sides never mix, so RHSLanes of them
// run per instruction with no reduction split or reordered, and a step the
// scalar loop skips for a zero multiplier is skipped in that lane alone.
// On amd64 CPUs with AVX-512F (useTile) each group of RHSLanes right-hand
// sides runs in rhs_amd64.s; elsewhere, under purego and on CPUs without
// it, the Go loops below run, which are also the tests' oracle.

// RHSLanes is the number of right-hand sides one vector register holds.
const RHSLanes = 8

// checkRows panics unless every index in rows names a row of the panel y
// (stride ld) that holds nrhs lanes: the assembly addresses y through them
// unchecked. A negative index is a huge uint32, so it fails the same
// bounds check. rows is not empty.
func checkRows(rows []int32, y []float64, ld, nrhs int) {
	var top uint32
	for _, r := range rows {
		top = max(top, uint32(r))
	}
	_ = y[int(top)*ld+nrhs-1]
}

// GemmNNInterleaved computes Y[rows[x], j] −= Σ_c A[x, c]·T[c, j] for
// x < m and j < nrhs, where A is m×k column-major (leading dimension lda),
// T has k rows and the panel y indexed rows, both of stride ld. Per
// element the updates arrive in ascending c, each rounded apart — the
// product, then the difference — and a step whose T[c, j] is ±0 is
// skipped: the sequence of Gemm(NoTrans, NoTrans, …, α = −1, β = 1)
// through gemmNN's axpy, and of the loop `if t != 0 { y[r] −= A[x,c]·t }`.
// rows must be distinct and name no row of T.
func GemmNNInterleaved(m, k, nrhs int, a []float64, lda int, t []float64, rows []int32, y []float64, ld int) {
	checkDims(m >= 0 && k >= 0 && nrhs >= 0, "GemmNNInterleaved: negative dimension m=%d k=%d nrhs=%d", m, k, nrhs)
	checkDims(lda >= max(1, m), "GemmNNInterleaved: lda=%d < m=%d", lda, m)
	checkDims(ld >= max(1, nrhs), "GemmNNInterleaved: ld=%d < nrhs=%d", ld, nrhs)
	checkDims(len(rows) >= m, "GemmNNInterleaved: %d row indices < m=%d", len(rows), m)
	if m == 0 || k == 0 || nrhs == 0 {
		return
	}
	rows = rows[:m]
	_ = a[(k-1)*lda+m-1]
	_ = t[(k-1)*ld+nrhs-1]
	checkRows(rows, y, ld, nrhs)
	if !useTile {
		gemmNNInterleavedGo(m, k, nrhs, a, lda, t, rows, y, ld)
		return
	}
	for g := 0; g < nrhs; g += RHSLanes {
		gemmNNVec(k, a, lda, t[g:], rows, y[g:], ld, min(RHSLanes, nrhs-g))
	}
}

// GemmTNInterleaved computes C[c, j] −= Σ_x A[x, c]·W[rows[x], j] for
// c < n and j < nrhs, where A is m×n column-major (leading dimension lda),
// the panel w is read at the indexed rows and C has n rows, both of stride
// ld. Per element the products are rounded apart, summed from +0 in
// ascending x and the sum subtracted: the sequence of Gemm(Transpose,
// NoTrans, …, α = −1, β = 1) through gemmTN's dot, and of the loop
// `s += A[x,c]·W[r,j]; C[c,j] −= s`.
func GemmTNInterleaved(n, m, nrhs int, a []float64, lda int, rows []int32, w []float64, c []float64, ld int) {
	checkDims(n >= 0 && m >= 0 && nrhs >= 0, "GemmTNInterleaved: negative dimension n=%d m=%d nrhs=%d", n, m, nrhs)
	checkDims(lda >= max(1, m), "GemmTNInterleaved: lda=%d < m=%d", lda, m)
	checkDims(ld >= max(1, nrhs), "GemmTNInterleaved: ld=%d < nrhs=%d", ld, nrhs)
	checkDims(len(rows) >= m, "GemmTNInterleaved: %d row indices < m=%d", len(rows), m)
	if n == 0 || nrhs == 0 {
		return
	}
	rows = rows[:m]
	_ = c[(n-1)*ld+nrhs-1]
	if m > 0 {
		_ = a[(n-1)*lda+m-1]
		checkRows(rows, w, ld, nrhs)
	}
	if !useTile || m == 0 {
		gemmTNInterleavedGo(n, m, nrhs, a, lda, rows, w, c, ld)
		return
	}
	for g := 0; g < nrhs; g += RHSLanes {
		gemmTNVec(n, a, lda, rows, w[g:], c[g:], ld, min(RHSLanes, nrhs-g))
	}
}

// TrsmLNInterleaved solves L·X = B in place for nrhs interleaved
// right-hand sides, where L is m×m lower triangular (leading dimension
// lda) and B has m rows of stride ld. Per element it runs Trsm(Left,
// Lower, NoTrans)'s sequence: for i from 0 to m−1, x_i = b_i / L[i,i], and
// unless x_i is ±0, b_r −= L[r,i]·x_i for every r > i (its axpy with the
// negated multiplier, the same bits: negation is exact and y + (−p) ≡
// y − p in IEEE 754).
func TrsmLNInterleaved(m, nrhs int, a []float64, lda int, b []float64, ld int) {
	checkDims(m >= 0 && nrhs >= 0, "TrsmLNInterleaved: negative dimension m=%d nrhs=%d", m, nrhs)
	checkDims(lda >= max(1, m), "TrsmLNInterleaved: lda=%d < m=%d", lda, m)
	checkDims(ld >= max(1, nrhs), "TrsmLNInterleaved: ld=%d < nrhs=%d", ld, nrhs)
	if m == 0 || nrhs == 0 {
		return
	}
	_ = a[(m-1)*lda+m-1]
	_ = b[(m-1)*ld+nrhs-1]
	if !useTile {
		trsmLNInterleavedGo(m, nrhs, a, lda, b, ld)
		return
	}
	for g := 0; g < nrhs; g += RHSLanes {
		trsmLNVec(m, a, lda, b[g:], ld, min(RHSLanes, nrhs-g))
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

// gemmNNInterleavedGo is GemmNNInterleaved's Go body: per group of
// RHSLanes right-hand sides and target row, one running value per lane.
func gemmNNInterleavedGo(m, k, nrhs int, a []float64, lda int, t []float64, rows []int32, y []float64, ld int) {
	for g := 0; g < nrhs; g += RHSLanes {
		lanes := min(RHSLanes, nrhs-g)
		for x, r := range rows[:m] {
			yr := y[int(r)*ld+g : int(r)*ld+g+lanes]
			for c := 0; c < k; c++ {
				av := a[c*lda+x]
				for j, tv := range t[c*ld+g : c*ld+g+lanes] {
					if tv != 0 {
						yr[j] -= float64(av * tv)
					}
				}
			}
		}
	}
}

// gemmTNInterleavedGo is GemmTNInterleaved's Go body: per group of
// RHSLanes right-hand sides and column c, one running sum per lane.
func gemmTNInterleavedGo(n, m, nrhs int, a []float64, lda int, rows []int32, w []float64, c []float64, ld int) {
	for g := 0; g < nrhs; g += RHSLanes {
		lanes := min(RHSLanes, nrhs-g)
		for col := 0; col < n; col++ {
			var s [RHSLanes]float64
			for x, av := range a[col*lda : col*lda+m] {
				r := int(rows[x])
				for j, wv := range w[r*ld+g : r*ld+g+lanes] {
					s[j] += float64(av * wv)
				}
			}
			for j := range c[col*ld+g : col*ld+g+lanes] {
				c[col*ld+g+j] -= s[j]
			}
		}
	}
}

// trsmLNInterleavedGo is TrsmLNInterleaved's Go body.
func trsmLNInterleavedGo(m, nrhs int, a []float64, lda int, b []float64, ld int) {
	for g := 0; g < nrhs; g += RHSLanes {
		lanes := min(RHSLanes, nrhs-g)
		for i := 0; i < m; i++ {
			ai := a[i*lda : i*lda+m]
			bi := b[i*ld+g : i*ld+g+lanes]
			for j := range bi {
				bi[j] /= ai[i]
			}
			for j, t := range bi {
				if t == 0 {
					continue
				}
				for r := i + 1; r < m; r++ {
					b[r*ld+g+j] -= float64(ai[r] * t)
				}
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
