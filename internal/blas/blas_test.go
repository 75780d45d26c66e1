package blas

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randSlice(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.NormFloat64()
	}
	return s
}

// randSPD builds a well-conditioned n×n SPD matrix M = B·Bᵀ + n·I.
func randSPD(rng *rand.Rand, n int) []float64 {
	b := randSlice(rng, n*n)
	m := make([]float64, n*n)
	RefGemm(NoTrans, Transpose, n, n, n, 1, b, n, b, n, 0, m, n)
	for i := 0; i < n; i++ {
		m[i+i*n] += float64(n)
	}
	return m
}

func maxAbsDiffSlice(a, b []float64) float64 {
	var m float64
	for i := range a {
		d := math.Abs(a[i] - b[i])
		if d > m {
			m = d
		}
	}
	return m
}

func TestGemmAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, ta := range []Trans{NoTrans, Transpose} {
		for _, tb := range []Trans{NoTrans, Transpose} {
			for trial := 0; trial < 20; trial++ {
				m, n, k := rng.Intn(12)+1, rng.Intn(12)+1, rng.Intn(12)+1
				lda, ldb, ldc := m, k, m
				if ta == Transpose {
					lda = k
				}
				if tb == Transpose {
					ldb = n
				}
				// Random extra leading-dimension padding.
				lda += rng.Intn(3)
				ldb += rng.Intn(3)
				ldc += rng.Intn(3)
				asz, bsz := lda*k, ldb*n
				if ta == Transpose {
					asz = lda * m
				}
				if tb == Transpose {
					bsz = ldb * k
				}
				a := randSlice(rng, asz)
				b := randSlice(rng, bsz)
				c0 := randSlice(rng, ldc*n)
				alpha := rng.NormFloat64()
				beta := rng.NormFloat64()

				got := append([]float64(nil), c0...)
				want := append([]float64(nil), c0...)
				Gemm(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, got, ldc)
				RefGemm(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, want, ldc)
				if d := maxAbsDiffSlice(got, want); d > 1e-10 {
					t.Fatalf("Gemm(%v,%v,m=%d,n=%d,k=%d) differs from reference by %g", ta, tb, m, n, k, d)
				}
			}
		}
	}
}

func TestGemmZeroSizes(t *testing.T) {
	// m, n or k of zero must be a no-op (beta scaling aside) and not panic.
	c := []float64{1, 2, 3, 4}
	Gemm(NoTrans, NoTrans, 0, 0, 0, 1, nil, 1, nil, 1, 1, c, 1)
	Gemm(NoTrans, NoTrans, 2, 2, 0, 1, nil, 2, nil, 1, 2, c, 2)
	want := []float64{2, 4, 6, 8}
	if maxAbsDiffSlice(c, want) != 0 {
		t.Fatalf("k=0 Gemm should only scale C by beta: got %v want %v", c, want)
	}
}

func TestGemmDimensionPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ldc < m")
		}
	}()
	Gemm(NoTrans, NoTrans, 4, 1, 1, 1, make([]float64, 4), 4, make([]float64, 1), 1, 0, make([]float64, 4), 2)
}

func TestSyrkAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, uplo := range []Uplo{Lower, Upper} {
		for _, trans := range []Trans{NoTrans, Transpose} {
			for trial := 0; trial < 20; trial++ {
				n, k := rng.Intn(12)+1, rng.Intn(12)+1
				lda := n
				if trans == Transpose {
					lda = k
				}
				lda += rng.Intn(3)
				asz := lda * k
				if trans == Transpose {
					asz = lda * n
				}
				a := randSlice(rng, asz)
				ldc := n + rng.Intn(3)
				c0 := randSlice(rng, ldc*n)
				alpha, beta := rng.NormFloat64(), rng.NormFloat64()

				got := append([]float64(nil), c0...)
				want := append([]float64(nil), c0...)
				Syrk(uplo, trans, n, k, alpha, a, lda, beta, got, ldc)
				RefSyrk(uplo, trans, n, k, alpha, a, lda, beta, want, ldc)
				if d := maxAbsDiffSlice(got, want); d > 1e-10 {
					t.Fatalf("Syrk(%v,%v,n=%d,k=%d) differs from reference by %g", uplo, trans, n, k, d)
				}
			}
		}
	}
}

func TestSyrkLeavesOppositeTriangleUntouched(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n, k := 6, 4
	a := randSlice(rng, n*k)
	c := randSlice(rng, n*n)
	orig := append([]float64(nil), c...)
	Syrk(Lower, NoTrans, n, k, 1, a, n, 0.5, c, n)
	for j := 0; j < n; j++ {
		for i := 0; i < j; i++ { // strictly upper
			if c[i+j*n] != orig[i+j*n] {
				t.Fatalf("Syrk(Lower) modified upper-triangle element (%d,%d)", i, j)
			}
		}
	}
}

func TestTrsmAllVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, side := range []Side{Left, Right} {
		for _, uplo := range []Uplo{Lower, Upper} {
			for _, trans := range []Trans{NoTrans, Transpose} {
				for trial := 0; trial < 10; trial++ {
					m, n := rng.Intn(10)+1, rng.Intn(10)+1
					na := m
					if side == Right {
						na = n
					}
					// Build a well-conditioned triangular A.
					lda := na + rng.Intn(3)
					a := randSlice(rng, lda*na)
					for i := 0; i < na; i++ {
						a[i+i*lda] = 2 + math.Abs(a[i+i*lda])
					}
					ldb := m + rng.Intn(3)
					b0 := randSlice(rng, ldb*n)
					alpha := 1 + rng.Float64()

					x := append([]float64(nil), b0...)
					Trsm(side, uplo, trans, m, n, alpha, a, lda, x, ldb)
					// Verify op(A)*X (or X*op(A)) == alpha*B.
					back := RefTrsmMul(side, uplo, trans, m, n, a, lda, x, ldb)
					for j := 0; j < n; j++ {
						for i := 0; i < m; i++ {
							want := alpha * b0[i+j*ldb]
							if d := math.Abs(back[i+j*m] - want); d > 1e-9 {
								t.Fatalf("Trsm(%v,%v,%v,m=%d,n=%d): residual %g at (%d,%d)", side, uplo, trans, m, n, d, i, j)
							}
						}
					}
				}
			}
		}
	}
}

func TestPotrfLowerReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 2, 3, 5, 8, 13, 21, 40} {
		m := randSPD(rng, n)
		l := append([]float64(nil), m...)
		if err := Potrf(Lower, n, l, n); err != nil {
			t.Fatalf("n=%d: unexpected error %v", n, err)
		}
		// Zero the strictly upper part of the factor copy, then L·Lᵀ.
		lf := append([]float64(nil), l...)
		for j := 0; j < n; j++ {
			for i := 0; i < j; i++ {
				lf[i+j*n] = 0
			}
		}
		rec := make([]float64, n*n)
		RefGemm(NoTrans, Transpose, n, n, n, 1, lf, n, lf, n, 0, rec, n)
		for j := 0; j < n; j++ {
			for i := j; i < n; i++ {
				if d := math.Abs(rec[i+j*n] - m[i+j*n]); d > 1e-8*float64(n) {
					t.Fatalf("n=%d: reconstruction error %g at (%d,%d)", n, d, i, j)
				}
			}
		}
		// Strictly upper triangle must be untouched.
		for j := 0; j < n; j++ {
			for i := 0; i < j; i++ {
				if l[i+j*n] != m[i+j*n] {
					t.Fatalf("n=%d: Potrf(Lower) modified upper triangle at (%d,%d)", n, i, j)
				}
			}
		}
	}
}

func TestPotrfUpperReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 12
	m := randSPD(rng, n)
	u := append([]float64(nil), m...)
	if err := Potrf(Upper, n, u, n); err != nil {
		t.Fatalf("unexpected error %v", err)
	}
	uf := append([]float64(nil), u...)
	for j := 0; j < n; j++ {
		for i := j + 1; i < n; i++ {
			uf[i+j*n] = 0
		}
	}
	rec := make([]float64, n*n)
	RefGemm(Transpose, NoTrans, n, n, n, 1, uf, n, uf, n, 0, rec, n)
	for j := 0; j < n; j++ {
		for i := 0; i <= j; i++ {
			if d := math.Abs(rec[i+j*n] - m[i+j*n]); d > 1e-8*float64(n) {
				t.Fatalf("reconstruction error %g at (%d,%d)", d, i, j)
			}
		}
	}
}

func TestPotrfNotPositiveDefinite(t *testing.T) {
	// A matrix with a negative eigenvalue must be rejected.
	a := []float64{
		1, 2,
		2, 1,
	}
	err := Potrf(Lower, 2, a, 2)
	if err == nil {
		t.Fatal("expected ErrNotPositiveDefinite")
	}
	if !errorsIs(err, ErrNotPositiveDefinite) {
		t.Fatalf("got %v, want wrapped ErrNotPositiveDefinite", err)
	}
	// Zero matrix fails on the first pivot.
	z := make([]float64, 9)
	if err := Potrf(Lower, 3, z, 3); err == nil {
		t.Fatal("expected failure on zero matrix")
	}
}

// errorsIs avoids importing errors in the test just for one call site.
func errorsIs(err, target error) bool {
	for err != nil {
		if err == target {
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

func TestPotrfMatchesTrsmSyrkBlocked(t *testing.T) {
	// Factor a matrix with POTRF, then verify the blocked identity the
	// solver relies on: for A = [[A11, ·],[A21, A22]],
	// L11 = chol(A11); L21 = A21·L11⁻ᵀ (Right/Lower/Transpose TRSM);
	// A22' = A22 − L21·L21ᵀ (SYRK); L22 = chol(A22').
	rng := rand.New(rand.NewSource(7))
	n := 20
	nb := 8
	m := randSPD(rng, n)

	whole := append([]float64(nil), m...)
	if err := Potrf(Lower, n, whole, n); err != nil {
		t.Fatal(err)
	}

	blocked := append([]float64(nil), m...)
	// chol(A11) in place.
	if err := Potrf(Lower, nb, blocked, n); err != nil {
		t.Fatal(err)
	}
	// L21 = A21 · L11⁻ᵀ.
	Trsm(Right, Lower, Transpose, n-nb, nb, 1, blocked, n, blocked[nb:], n)
	// A22 −= L21·L21ᵀ.
	Syrk(Lower, NoTrans, n-nb, nb, -1, blocked[nb:], n, 1, blocked[nb+nb*n:], n)
	if err := Potrf(Lower, n-nb, blocked[nb+nb*n:], n); err != nil {
		t.Fatal(err)
	}

	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			if d := math.Abs(whole[i+j*n] - blocked[i+j*n]); d > 1e-9 {
				t.Fatalf("blocked factorization differs at (%d,%d) by %g", i, j, d)
			}
		}
	}
}

func TestDenseCholSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 15
	spd := randSPD(rng, n)
	d := NewDense(n, n)
	copy(d.Data, spd)
	orig := NewDense(n, n)
	copy(orig.Data, spd)
	xTrue := randSlice(rng, n)
	b := orig.MulVec(xTrue)
	x, err := d.CholSolve(b)
	if err != nil {
		t.Fatal(err)
	}
	if r := ResidualNorm(orig, x, b); r > 1e-10 {
		t.Fatalf("residual %g too large", r)
	}
}

// Property-based: Potrf of B·Bᵀ+cI succeeds and reconstructs for arbitrary B.
func TestPotrfProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%16) + 1
		rng := rand.New(rand.NewSource(seed))
		m := randSPD(rng, n)
		l := append([]float64(nil), m...)
		if err := Potrf(Lower, n, l, n); err != nil {
			return false
		}
		// spot-check a few entries of L·Lᵀ.
		for trial := 0; trial < 5; trial++ {
			i := rng.Intn(n)
			j := rng.Intn(i + 1)
			var s float64
			for r := 0; r <= j; r++ {
				s += l[i+r*n] * l[j+r*n]
			}
			if math.Abs(s-m[i+j*n]) > 1e-7*float64(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property-based: Gemm is linear in alpha.
func TestGemmLinearityProperty(t *testing.T) {
	f := func(seed int64, mRaw, nRaw, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n, k := int(mRaw%8)+1, int(nRaw%8)+1, int(kRaw%8)+1
		a := randSlice(rng, m*k)
		b := randSlice(rng, k*n)
		c1 := make([]float64, m*n)
		c2 := make([]float64, m*n)
		Gemm(NoTrans, NoTrans, m, n, k, 2.5, a, m, b, k, 0, c1, m)
		Gemm(NoTrans, NoTrans, m, n, k, 1, a, m, b, k, 0, c2, m)
		for i := range c1 {
			if math.Abs(c1[i]-2.5*c2[i]) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestFlopCounts(t *testing.T) {
	if FlopsGemm(2, 3, 4) != 48 {
		t.Fatalf("FlopsGemm = %d", FlopsGemm(2, 3, 4))
	}
	if FlopsSyrk(3, 2) != 24 {
		t.Fatalf("FlopsSyrk = %d", FlopsSyrk(3, 2))
	}
	if FlopsTrsm(Left, 3, 5) != 45 || FlopsTrsm(Right, 5, 3) != 45 {
		t.Fatal("FlopsTrsm wrong")
	}
	if FlopsPotrf(6) != 72 {
		t.Fatalf("FlopsPotrf = %d", FlopsPotrf(6))
	}
}

// Blocked POTRF path (n ≥ 64) must agree with the unblocked kernel and
// report failures with the global pivot context.
func TestPotrfBlockedMatchesUnblocked(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for _, n := range []int{64, 65, 96, 129, 200} {
		m := randSPD(rng, n)
		blocked := append([]float64(nil), m...)
		if err := Potrf(Lower, n, blocked, n); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		unblocked := append([]float64(nil), m...)
		if err := potrfUnblocked(Lower, n, unblocked, n); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for j := 0; j < n; j++ {
			for i := j; i < n; i++ {
				if d := math.Abs(blocked[i+j*n] - unblocked[i+j*n]); d > 1e-8 {
					t.Fatalf("n=%d: blocked differs at (%d,%d) by %g", n, i, j, d)
				}
			}
		}
	}
	// Failure in a trailing block must surface as not-positive-definite.
	n := 80
	m := randSPD(rng, n)
	m[70+70*n] = -1e6 // poison a late pivot region
	bad := append([]float64(nil), m...)
	if err := Potrf(Lower, n, bad, n); err == nil {
		t.Fatal("expected failure")
	} else if !errorsIs(err, ErrNotPositiveDefinite) {
		t.Fatalf("got %v", err)
	}
}

// TestKernelsDoNotAllocate runs every Gemm, Syrk, Trsm and Potrf variant at
// leading dimensions on both sides of 256, the first int that boxing into an
// interface allocates for, and requires zero allocations: the supernodal
// solve calls Trsm and Gemm with ld = n on every block. The shapes are wide
// enough (n = 17: two 8-column groups and a remainder) for the register
// tile, and every kernel path the host has runs.
func TestKernelsDoNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const m, n, k = 19, 17, 9
	for _, ld := range []int{255, 256, 4096} {
		a := randSlice(rng, ld*max(m, n, k))
		b := randSlice(rng, ld*max(m, n, k))
		c := randSlice(rng, ld*max(m, n, k))
		for i := 0; i < max(m, n); i++ {
			a[i+i*ld] = 4
		}
		expect := func(name string, run func()) {
			t.Helper()
			for _, p := range kernelPaths {
				if !p.onHost() {
					continue
				}
				var got float64
				p.run(func() { got = testing.AllocsPerRun(5, run) })
				if got != 0 {
					t.Errorf("%s at ld=%d on the %s path: %.0f allocations per call, want 0", name, ld, p.name, got)
				}
			}
		}
		for _, ta := range []Trans{NoTrans, Transpose} {
			for _, tb := range []Trans{NoTrans, Transpose} {
				expect(fmt.Sprintf("Gemm(%v,%v)", ta, tb), func() {
					Gemm(ta, tb, m, n, k, -1, a, ld, b, ld, 1, c, ld)
				})
			}
		}
		for _, uplo := range []Uplo{Lower, Upper} {
			for _, trans := range []Trans{NoTrans, Transpose} {
				expect(fmt.Sprintf("Syrk(%v,%v)", uplo, trans), func() {
					Syrk(uplo, trans, n, k, -1, a, ld, 1, c, ld)
				})
				for _, side := range []Side{Left, Right} {
					expect(fmt.Sprintf("Trsm(%v,%v,%v)", side, uplo, trans), func() {
						Trsm(side, uplo, trans, m, n, 1, a, ld, b, ld)
					})
				}
			}
			// 8 runs the unblocked kernel, 70 the blocked Lower one.
			for _, order := range []int{8, 70} {
				spd := randSPD(rng, order)
				work := make([]float64, ld*order)
				expect(fmt.Sprintf("Potrf(%v,%d)", uplo, order), func() {
					for j := 0; j < order; j++ {
						copy(work[j*ld:j*ld+order], spd[j*order:j*order+order])
					}
					if err := Potrf(uplo, order, work, ld); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}
