package blas

// Reference kernels: textbook triple-loop implementations used exclusively
// by the test suite to validate the production kernels. They share the
// column-major, leading-dimension convention of the production code.

// RefGemm is the naive O(mnk) general matrix multiply.
func RefGemm(ta, tb Trans, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	at := func(i, l int) float64 {
		if ta == NoTrans {
			return a[i+l*lda]
		}
		return a[l+i*lda]
	}
	bt := func(l, j int) float64 {
		if tb == NoTrans {
			return b[l+j*ldb]
		}
		return b[j+l*ldb]
	}
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			var s float64
			for l := 0; l < k; l++ {
				s += float64(at(i, l) * bt(l, j))
			}
			c[i+j*ldc] = float64(alpha*s) + float64(beta*c[i+j*ldc])
		}
	}
}

// RefSyrk is the naive symmetric rank-k update.
func RefSyrk(uplo Uplo, trans Trans, n, k int, alpha float64, a []float64, lda int, beta float64, c []float64, ldc int) {
	at := func(i, l int) float64 {
		if trans == NoTrans {
			return a[i+l*lda]
		}
		return a[l+i*lda]
	}
	for j := 0; j < n; j++ {
		var lo, hi int
		if uplo == Lower {
			lo, hi = j, n
		} else {
			lo, hi = 0, j+1
		}
		for i := lo; i < hi; i++ {
			var s float64
			for l := 0; l < k; l++ {
				s += float64(at(i, l) * at(j, l))
			}
			c[i+j*ldc] = float64(alpha*s) + float64(beta*c[i+j*ldc])
		}
	}
}

// RefTrsmSolve checks a Trsm result by multiplying back: it returns
// op(A)*X (Left) or X*op(A) (Right) into a fresh m×n buffer with leading
// dimension m.
func RefTrsmMul(side Side, uplo Uplo, trans Trans, m, n int, a []float64, lda int, x []float64, ldx int) []float64 {
	na := m
	if side == Right {
		na = n
	}
	// Materialize op(A) as a dense na×na matrix with only the stored
	// triangle populated.
	t := make([]float64, na*na)
	for j := 0; j < na; j++ {
		for i := 0; i < na; i++ {
			inTri := (uplo == Lower && i >= j) || (uplo == Upper && i <= j)
			if !inTri {
				continue
			}
			v := a[i+j*lda]
			if trans == NoTrans {
				t[i+j*na] = v
			} else {
				t[j+i*na] = v
			}
		}
	}
	out := make([]float64, m*n)
	if side == Left {
		RefGemm(NoTrans, NoTrans, m, n, m, 1, t, na, x, ldx, 0, out, m)
	} else {
		RefGemm(NoTrans, NoTrans, m, n, n, 1, x, ldx, t, na, 0, out, m)
	}
	return out
}
