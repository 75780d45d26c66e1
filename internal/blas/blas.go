// Package blas provides the dense linear-algebra kernels that symPACK's
// numeric factorization is built on: GEMM, SYRK, TRSM and POTRF, in the
// variants the paper uses (§3.2).
//
// Matrices are stored column-major, matching the LAPACK convention the paper
// assumes, as flat []float64 slices with an explicit leading dimension (ld).
// Element (i,j) of an m×n matrix a with leading dimension ld lives at
// a[i+j*ld], 0-indexed.
//
// Every loop of the form y[i] ± t·x[i] or x[i] *= d — gemmNN, gemmNT, Syrk
// NoTrans, the Trsm cases whose inner loop runs down a column, unblocked
// Potrf Lower and the β/α scalings — runs on three primitives (vec.go):
// axpy and scal, which on amd64 CPUs with AVX2 are assembly
// (vec_amd64.s), and the register tile, which on CPUs with AVX-512F holds a
// 16-row × 8-column block of C in ZMM registers across the whole inner
// dimension. Without AVX-512 the tile's columns run the axpy loops; on
// other architectures, under the purego build tag and on CPUs without AVX2
// everything is Go loops, which are also the tests' oracle. All give
// identical bits: the vector code rounds the product, then the sum, lane
// by lane — the scalar sequence, never an FMA, with gc's operand order, so
// even a NaN's payload survives the same way — and each element's updates
// arrive in the same order. Every product that feeds a sum in this package
// is written float64(x*y), which forbids gc to fuse it, so the Go loops
// compute the same bits on arm64, where gc would otherwise emit FMADDD.
//
// The tile runs under three kernels, per group of 8 columns of C; the last
// 1–7 columns run the axpy loops. An element (i, j) of C sees one update
// per step l, in ascending l, with the multiplier t the Go loop computes
// (alpha·b[j,l], or −L[j,r] in Trsm), and no update at a step where t is
// ±0 — the axpy sequence, only regrouped:
//   - gemmNT: each group through the tile over all k.
//   - Syrk Lower/NoTrans: the group's 8×8 diagonal block through the tile
//     in a copy, of which only the lower triangle is written back, then the
//     rectangle below it in place. The upper triangle is never written.
//   - Trsm Right/Lower/Transpose: column j takes the updates from columns
//     r < j in ascending r, then the scaling by 1/L[j,j]. The tile applies
//     those from the columns left of j's group; the in-group ones and the
//     scaling follow through axpy and scal as before.
//
// The dot-shaped loops stay scalar Go: dot, gemmTN, gemmTT, Syrk Transpose,
// the Left/Transpose Trsm cases and Potrf Upper. Vectorising a reduction
// splits one running sum into several and reorders the additions, which
// changes the bits.
//
// Each kernel has a straightforward reference implementation (ref.go) used
// by the tests to validate the production kernels.
package blas

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotPositiveDefinite is returned by Potrf when a non-positive pivot is
// encountered, meaning the input matrix is not (numerically) positive
// definite.
var ErrNotPositiveDefinite = errors.New("blas: matrix is not positive definite")

// Side selects whether the triangular operand in Trsm multiplies from the
// left or the right.
type Side int

// Uplo selects which triangle of a symmetric or triangular matrix is stored.
type Uplo int

// Trans selects whether an operand is transposed.
type Trans int

const (
	Left Side = iota
	Right
)

const (
	Lower Uplo = iota
	Upper
)

const (
	NoTrans Trans = iota
	Transpose
)

func (s Side) String() string {
	if s == Left {
		return "Left"
	}
	return "Right"
}

func (u Uplo) String() string {
	if u == Lower {
		return "Lower"
	}
	return "Upper"
}

func (t Trans) String() string {
	if t == NoTrans {
		return "NoTrans"
	}
	return "Transpose"
}

// checkDims panics with a descriptive message when a kernel is invoked with
// an impossible geometry. Dimension errors are programming errors in the
// solver, not data errors, so a panic is appropriate. The dimensions are
// boxed for the message only once the check has failed: boxing an int
// allocates from 256 on, and a leading dimension of n would otherwise cost
// every kernel call an allocation.
func checkDims(cond bool, format string, dims ...int) {
	if cond {
		return
	}
	args := make([]any, len(dims))
	for i, d := range dims {
		args[i] = d
	}
	panic(fmt.Sprintf("blas: "+format, args...))
}

// Gemm computes C = alpha*op(A)*op(B) + beta*C where op is identity or
// transpose per ta/tb. C is m×n, op(A) is m×k, op(B) is k×n.
func Gemm(ta, tb Trans, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	checkDims(m >= 0 && n >= 0 && k >= 0, "Gemm: negative dimension m=%d n=%d k=%d", m, n, k)
	checkDims(ldc >= max(1, m), "Gemm: ldc=%d < m=%d", ldc, m)
	if ta == NoTrans {
		checkDims(lda >= max(1, m), "Gemm: lda=%d < m=%d", lda, m)
	} else {
		checkDims(lda >= max(1, k), "Gemm: lda=%d < k=%d", lda, k)
	}
	if tb == NoTrans {
		checkDims(ldb >= max(1, k), "Gemm: ldb=%d < k=%d", ldb, k)
	} else {
		checkDims(ldb >= max(1, n), "Gemm: ldb=%d < n=%d", ldb, n)
	}
	if m == 0 || n == 0 {
		return
	}
	if beta != 1 {
		scaleRect(m, n, beta, c, ldc)
	}
	if k == 0 || alpha == 0 {
		return
	}
	switch {
	case ta == NoTrans && tb == NoTrans:
		gemmNN(m, n, k, alpha, a, lda, b, ldb, c, ldc)
	case ta == NoTrans && tb == Transpose:
		gemmNT(m, n, k, alpha, a, lda, b, ldb, c, ldc)
	case ta == Transpose && tb == NoTrans:
		gemmTN(m, n, k, alpha, a, lda, b, ldb, c, ldc)
	default:
		gemmTT(m, n, k, alpha, a, lda, b, ldb, c, ldc)
	}
}

func scaleRect(m, n int, beta float64, c []float64, ldc int) {
	if beta == 0 {
		for j := 0; j < n; j++ {
			col := c[j*ldc : j*ldc+m]
			for i := range col {
				col[i] = 0
			}
		}
		return
	}
	for j := 0; j < n; j++ {
		scal(beta, c[j*ldc:j*ldc+m])
	}
}

// gemmNN: C += alpha * A(m×k) * B(k×n). Column-major: iterate over columns
// of C; for each column j of B, accumulate alpha*b[l,j] times column l of A.
// This is the classic "daxpy" formulation, which is cache-friendly for
// column-major storage.
func gemmNN(m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	for j := 0; j < n; j++ {
		cj := c[j*ldc : j*ldc+m]
		bj := b[j*ldb : j*ldb+k]
		for l := 0; l < k; l++ {
			t := alpha * bj[l]
			if t == 0 {
				continue
			}
			al := a[l*lda : l*lda+m]
			axpy(t, al, cj)
		}
	}
}

// gemmNT: C += alpha * A(m×k) * Bᵀ where B is n×k. b[j,l] multiplies column
// l of A into column j of C. Under the register tile each full group of
// tileN columns runs through it and the last 1–7 columns through axpy.
func gemmNT(m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	j0 := 0
	if useTile {
		for ; j0+tileN <= n; j0 += tileN {
			tile(m, k, alpha, false, a, lda, b[j0:], ldb, c[j0*ldc:], ldc)
		}
	}
	for l := 0; l < k; l++ {
		al := a[l*lda : l*lda+m]
		bl := b[l*ldb:]
		for j := j0; j < n; j++ {
			t := alpha * bl[j]
			if t == 0 {
				continue
			}
			cj := c[j*ldc : j*ldc+m]
			axpy(t, al, cj)
		}
	}
}

// gemmTN: C += alpha * Aᵀ * B where A is k×m, B is k×n. c[i,j] gets the dot
// product of column i of A with column j of B — both contiguous.
func gemmTN(m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	for j := 0; j < n; j++ {
		cj := c[j*ldc : j*ldc+m]
		bj := b[j*ldb : j*ldb+k]
		for i := 0; i < m; i++ {
			ai := a[i*lda : i*lda+k]
			cj[i] += float64(alpha * dot(ai, bj))
		}
	}
}

// gemmTT: C += alpha * Aᵀ * Bᵀ where A is k×m, B is n×k.
func gemmTT(m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	for j := 0; j < n; j++ {
		cj := c[j*ldc : j*ldc+m]
		for i := 0; i < m; i++ {
			ai := a[i*lda : i*lda+k]
			var s float64
			for l := 0; l < k; l++ {
				s += float64(ai[l] * b[j+l*ldb])
			}
			cj[i] += float64(alpha * s)
		}
	}
}

func dot(x, y []float64) float64 {
	_ = y[len(x)-1]
	var s float64
	for i, xv := range x {
		s += float64(xv * y[i])
	}
	return s
}

// Syrk performs the symmetric rank-k update used by the paper's diagonal
// update tasks: C = alpha*op(A)*op(A)ᵀ + beta*C, touching only the `uplo`
// triangle of the n×n matrix C. With trans == NoTrans, A is n×k; with
// Transpose, A is k×n.
func Syrk(uplo Uplo, trans Trans, n, k int, alpha float64, a []float64, lda int, beta float64, c []float64, ldc int) {
	checkDims(n >= 0 && k >= 0, "Syrk: negative dimension n=%d k=%d", n, k)
	checkDims(ldc >= max(1, n), "Syrk: ldc=%d < n=%d", ldc, n)
	if n == 0 {
		return
	}
	// Scale the stored triangle.
	if beta != 1 {
		for j := 0; j < n; j++ {
			var lo, hi int
			if uplo == Lower {
				lo, hi = j, n
			} else {
				lo, hi = 0, j+1
			}
			col := c[j*ldc:]
			if beta == 0 {
				for i := lo; i < hi; i++ {
					col[i] = 0
				}
			} else {
				scal(beta, col[lo:hi])
			}
		}
	}
	if k == 0 || alpha == 0 {
		return
	}
	if trans == NoTrans {
		// C += alpha * A*Aᵀ, A is n×k. Under the register tile, Lower runs
		// per group of tileN columns, both parts through the tile: the
		// group's diagonal block in a copy, of which only the lower
		// triangle is written back (the upper triangle stays untouched),
		// then the rectangle below it in place. The last 1–7 columns run
		// the loop below.
		j0 := 0
		if uplo == Lower && useTile {
			var diag [tileN * tileN]float64
			for ; j0+tileN <= n; j0 += tileN {
				g := j0 + tileN
				for j := 0; j < tileN; j++ {
					copy(diag[j*tileN:(j+1)*tileN], c[j0+(j0+j)*ldc:g+(j0+j)*ldc])
				}
				tile(tileN, k, alpha, false, a[j0:], lda, a[j0:], lda, diag[:], tileN)
				for j := 0; j < tileN; j++ {
					copy(c[j0+j+(j0+j)*ldc:g+(j0+j)*ldc], diag[j*tileN+j:(j+1)*tileN])
				}
				tile(n-g, k, alpha, false, a[g:], lda, a[j0:], lda, c[g+j0*ldc:], ldc)
			}
		}
		for l := 0; l < k; l++ {
			al := a[l*lda : l*lda+n]
			for j := j0; j < n; j++ {
				t := alpha * al[j]
				if t == 0 {
					continue
				}
				col := c[j*ldc:]
				if uplo == Lower {
					axpy(t, al[j:n], col[j:n])
				} else {
					axpy(t, al[:j+1], col[:j+1])
				}
			}
		}
		return
	}
	// trans == Transpose: C += alpha * Aᵀ*A, A is k×n.
	for j := 0; j < n; j++ {
		aj := a[j*lda : j*lda+k]
		col := c[j*ldc:]
		if uplo == Lower {
			for i := j; i < n; i++ {
				col[i] += float64(alpha * dot(a[i*lda:i*lda+k], aj))
			}
		} else {
			for i := 0; i <= j; i++ {
				col[i] += float64(alpha * dot(a[i*lda:i*lda+k], aj))
			}
		}
	}
}

// Trsm solves a triangular system with multiple right-hand sides in place:
// op(A)*X = alpha*B (Left) or X*op(A) = alpha*B (Right), overwriting the
// m×n matrix B with X. A is unit-diagonal-free (non-unit) triangular.
//
// symPACK's factorization task F_{i,j} uses the Right/Lower/Transpose
// variant: X * Lᵀ = B where L is the factorized diagonal block.
func Trsm(side Side, uplo Uplo, trans Trans, m, n int, alpha float64, a []float64, lda int, b []float64, ldb int) {
	checkDims(m >= 0 && n >= 0, "Trsm: negative dimension m=%d n=%d", m, n)
	checkDims(ldb >= max(1, m), "Trsm: ldb=%d < m=%d", ldb, m)
	na := m
	if side == Right {
		na = n
	}
	checkDims(lda >= max(1, na), "Trsm: lda=%d < order=%d", lda, na)
	if m == 0 || n == 0 {
		return
	}
	if alpha != 1 {
		scaleRect(m, n, alpha, b, ldb)
	}
	switch {
	case side == Left && uplo == Lower && trans == NoTrans:
		// Solve L*X = B: forward substitution down each column of B.
		for j := 0; j < n; j++ {
			bj := b[j*ldb : j*ldb+m]
			for i := 0; i < m; i++ {
				bj[i] /= a[i+i*lda]
				t := bj[i]
				if t == 0 {
					continue
				}
				axpy(-t, a[i*lda+i+1:i*lda+m], bj[i+1:])
			}
		}
	case side == Left && uplo == Lower && trans == Transpose:
		// Solve Lᵀ*X = B: backward substitution.
		for j := 0; j < n; j++ {
			bj := b[j*ldb : j*ldb+m]
			for i := m - 1; i >= 0; i-- {
				ai := a[i*lda:]
				s := bj[i]
				for r := i + 1; r < m; r++ {
					s -= float64(ai[r] * bj[r])
				}
				bj[i] = s / ai[i]
			}
		}
	case side == Left && uplo == Upper && trans == NoTrans:
		// Solve U*X = B: backward substitution.
		for j := 0; j < n; j++ {
			bj := b[j*ldb : j*ldb+m]
			for i := m - 1; i >= 0; i-- {
				bj[i] /= a[i+i*lda]
				t := bj[i]
				if t == 0 {
					continue
				}
				axpy(-t, a[i*lda:i*lda+i], bj)
			}
		}
	case side == Left && uplo == Upper && trans == Transpose:
		// Solve Uᵀ*X = B: forward substitution.
		for j := 0; j < n; j++ {
			bj := b[j*ldb : j*ldb+m]
			for i := 0; i < m; i++ {
				ai := a[i*lda:]
				s := bj[i]
				for r := 0; r < i; r++ {
					s -= float64(ai[r] * bj[r])
				}
				bj[i] = s / ai[i]
			}
		}
	case side == Right && uplo == Lower && trans == NoTrans:
		// Solve X*L = B, i.e. columns of X from last to first:
		// X[:,j] = (B[:,j] - sum_{r>j} X[:,r]*L[r,j]) / L[j,j].
		for j := n - 1; j >= 0; j-- {
			bj := b[j*ldb : j*ldb+m]
			aj := a[j*lda:]
			for r := j + 1; r < n; r++ {
				t := aj[r]
				if t == 0 {
					continue
				}
				axpy(-t, b[r*ldb:r*ldb+m], bj)
			}
			d := 1 / aj[j]
			scal(d, bj)
		}
	case side == Right && uplo == Lower && trans == Transpose:
		// Solve X*Lᵀ = B, columns first to last:
		// X[:,j] = (B[:,j] - sum_{r<j} X[:,r]*L[j,r]) / L[j,j].
		// Under the register tile, a full group of tileN columns first
		// takes the updates from the columns left of it through the tile
		// (t = −L[j,r]); the in-group ones and the scaling follow.
		for j := 0; j < n; j++ {
			bj := b[j*ldb : j*ldb+m]
			r0 := 0
			if g := j - j%tileN; useTile && g+tileN <= n {
				if j == g {
					tile(m, g, 0, true, b, ldb, a[g:], lda, b[g*ldb:], ldb)
				}
				r0 = g
			}
			for r := r0; r < j; r++ {
				t := a[j+r*lda]
				if t == 0 {
					continue
				}
				axpy(-t, b[r*ldb:r*ldb+m], bj)
			}
			d := 1 / a[j+j*lda]
			scal(d, bj)
		}
	case side == Right && uplo == Upper && trans == NoTrans:
		// Solve X*U = B, columns first to last.
		for j := 0; j < n; j++ {
			bj := b[j*ldb : j*ldb+m]
			aj := a[j*lda:]
			for r := 0; r < j; r++ {
				t := aj[r]
				if t == 0 {
					continue
				}
				axpy(-t, b[r*ldb:r*ldb+m], bj)
			}
			d := 1 / aj[j]
			scal(d, bj)
		}
	default: // Right, Upper, Transpose
		// Solve X*Uᵀ = B, columns last to first.
		for j := n - 1; j >= 0; j-- {
			bj := b[j*ldb : j*ldb+m]
			for r := j + 1; r < n; r++ {
				t := a[j+r*lda]
				if t == 0 {
					continue
				}
				axpy(-t, b[r*ldb:r*ldb+m], bj)
			}
			d := 1 / a[j+j*lda]
			scal(d, bj)
		}
	}
}

// Potrf computes the Cholesky factorization of the n×n symmetric positive
// definite matrix stored in the `uplo` triangle of a, in place. For Lower it
// produces L with A = L·Lᵀ; for Upper it produces U with A = Uᵀ·U. The
// opposite triangle is left untouched. It returns ErrNotPositiveDefinite
// (wrapped with the failing pivot index) when a pivot is ≤ 0 or NaN.
// potrfBlockSize is the panel width of the blocked Cholesky; below twice
// this order the unblocked kernel runs directly.
const potrfBlockSize = 32

// Large Lower factorizations run blocked — panel POTRF, panel TRSM, SYRK
// trailing update — so most flops flow through the level-3 kernels.
func Potrf(uplo Uplo, n int, a []float64, lda int) error {
	checkDims(n >= 0, "Potrf: negative dimension n=%d", n)
	checkDims(lda >= max(1, n), "Potrf: lda=%d < n=%d", lda, n)
	if uplo == Lower && n >= 2*potrfBlockSize {
		return potrfBlockedLower(n, a, lda)
	}
	return potrfUnblocked(uplo, n, a, lda)
}

// potrfBlockedLower runs the right-looking blocked factorization.
func potrfBlockedLower(n int, a []float64, lda int) error {
	for j := 0; j < n; j += potrfBlockSize {
		nb := min(potrfBlockSize, n-j)
		diag := a[j+j*lda:]
		if err := potrfUnblocked(Lower, nb, diag, lda); err != nil {
			return fmt.Errorf("%w (block at %d)", err, j)
		}
		rest := n - j - nb
		if rest == 0 {
			continue
		}
		panel := a[j+nb+j*lda:]
		// L21 = A21 · L11⁻ᵀ.
		Trsm(Right, Lower, Transpose, rest, nb, 1, diag, lda, panel, lda)
		// A22 −= L21·L21ᵀ.
		Syrk(Lower, NoTrans, rest, nb, -1, panel, lda, 1, a[j+nb+(j+nb)*lda:], lda)
	}
	return nil
}

func potrfUnblocked(uplo Uplo, n int, a []float64, lda int) error {
	if uplo == Lower {
		for j := 0; j < n; j++ {
			aj := a[j*lda:]
			// d = a[j,j] - sum_{r<j} L[j,r]^2
			d := aj[j]
			for r := 0; r < j; r++ {
				ljr := a[j+r*lda]
				d -= float64(ljr * ljr)
			}
			if d <= 0 || math.IsNaN(d) {
				return fmt.Errorf("%w (pivot %d, value %g)", ErrNotPositiveDefinite, j, d)
			}
			d = math.Sqrt(d)
			aj[j] = d
			// Column below the diagonal:
			// L[i,j] = (a[i,j] - sum_{r<j} L[i,r]*L[j,r]) / d
			for r := 0; r < j; r++ {
				t := a[j+r*lda]
				if t == 0 {
					continue
				}
				axpy(-t, a[r*lda+j+1:r*lda+n], aj[j+1:n])
			}
			scal(1/d, aj[j+1:n])
		}
		return nil
	}
	// Upper: factor A = Uᵀ·U using the relation U = (chol(A) for the
	// transposed layout). Work row-wise on the upper triangle.
	for j := 0; j < n; j++ {
		aj := a[j*lda:]
		d := aj[j]
		for r := 0; r < j; r++ {
			urj := aj[r]
			d -= float64(urj * urj)
		}
		if d <= 0 || math.IsNaN(d) {
			return fmt.Errorf("%w (pivot %d, value %g)", ErrNotPositiveDefinite, j, d)
		}
		d = math.Sqrt(d)
		aj[j] = d
		inv := 1 / d
		for i := j + 1; i < n; i++ {
			ai := a[i*lda:]
			s := ai[j]
			for r := 0; r < j; r++ {
				s -= float64(aj[r] * ai[r])
			}
			ai[j] = s * inv
		}
	}
	return nil
}

// Round32 rounds every element of a through float32 in place (round to
// nearest even): the storage demotion of Options.Precision = fp32, applied
// to a factor block once, when the task that finalises it has run. The
// kernels above stay fp64; float32 is what the block is stored and shipped
// as, not what it is computed in (DESIGN.md §14).
func Round32(a []float64) {
	for i, v := range a {
		a[i] = float64(float32(v))
	}
}

// FlopsGemm returns the floating-point operation count of a GEMM with the
// given dimensions; used by the GPU offload heuristics and the machine model.
func FlopsGemm(m, n, k int) int64 { return 2 * int64(m) * int64(n) * int64(k) }

// FlopsSyrk returns the flop count of a SYRK touching one triangle.
func FlopsSyrk(n, k int) int64 { return int64(n) * int64(n+1) * int64(k) }

// FlopsTrsm returns the flop count of a TRSM with an m×n right-hand side and
// a triangular factor of the order implied by side.
func FlopsTrsm(side Side, m, n int) int64 {
	if side == Left {
		return int64(n) * int64(m) * int64(m)
	}
	return int64(m) * int64(n) * int64(n)
}

// FlopsPotrf returns the flop count of an order-n Cholesky factorization.
func FlopsPotrf(n int) int64 { return int64(n) * int64(n) * int64(n) / 3 }
