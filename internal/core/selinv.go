package core

import (
	"fmt"
	"math"
)

// SelInv holds the selected inverse of a factored matrix: the entries of
// A⁻¹ at the positions of the Cholesky factor's sparsity pattern. This is
// the computation at the heart of PEXSI (paper §5.3: "evaluating specific
// elements of a matrix inverse without explicitly inverting the matrix");
// notably it includes the full diagonal of A⁻¹.
type SelInv struct {
	f *Factor
	// Scalar CSC pattern of L (permuted ordering) carrying Z = A⁻¹ values.
	colPtr []int64
	rowInd []int32
	z      []float64
	inv    []int32 // original → permuted index
}

// SelectedInverse computes A⁻¹ on the pattern of L using the
// Takahashi/Erisman–Tinney recurrence over the supernodal factor: with
// A = L₁·D·L₁ᵀ (unit lower L₁, D = diag(L)²),
//
//	Z[i,j] = −Σ_k L₁[k,j]·Z(max(i,k), min(i,k))        (i > j)
//	Z[j,j] = 1/D[j] − Σ_k L₁[k,j]·Z[k,j]
//
// where k ranges over the off-diagonal pattern of column j. Every Z entry
// the recurrence touches lies inside L's pattern (the same fill closure the
// factorization relies on), so the computation never leaves the selected
// set.
func (f *Factor) SelectedInverse() (*SelInv, error) {
	st := f.St
	n := st.N
	s := &SelInv{f: f, colPtr: make([]int64, n+1), inv: make([]int32, n)}
	for k := 0; k < n; k++ {
		s.inv[st.Perm[k]] = int32(k)
	}
	// Scalar pattern from the supernodal structure: column j's rows are
	// its supernode's rows from j down.
	for j := 0; j < n; j++ {
		sn := &st.Snodes[st.SnOf[j]]
		local := int(int32(j) - sn.FirstCol)
		s.colPtr[j+1] = s.colPtr[j] + int64(sn.NRows()-local)
	}
	nnz := s.colPtr[n]
	s.rowInd = make([]int32, nnz)
	s.z = make([]float64, nnz)
	l1 := make([]float64, nnz) // unit-lower factor values
	dinv := make([]float64, n) // 1/D[j]
	for j := 0; j < n; j++ {
		sn := &st.Snodes[st.SnOf[j]]
		local := int(int32(j) - sn.FirstCol)
		base := s.colPtr[j]
		blks := st.SnodeBlocks(st.SnOf[j])
		pos := base
		var diag float64
		for bi := range blks {
			b := &blks[bi]
			data := f.Data[b.ID]
			m := int(b.NRows)
			rows := sn.Rows[b.RowOff : b.RowOff+b.NRows]
			for x := 0; x < m; x++ {
				if rows[x] < int32(j) {
					continue
				}
				v := data[x+local*m]
				if rows[x] == int32(j) {
					diag = v
				}
				s.rowInd[pos] = rows[x]
				l1[pos] = v
				pos++
			}
		}
		if diag <= 0 || math.IsNaN(diag) {
			return nil, fmt.Errorf("core: selected inverse: bad pivot %g at column %d", diag, j)
		}
		dinv[j] = 1 / (diag * diag)
		inv := 1 / diag
		for p := base; p < pos; p++ {
			l1[p] *= inv // L₁ = L·diag(L)⁻¹; the diagonal becomes 1
		}
	}

	// zAt returns Z(i,k) with i ≥ k via binary search in column k.
	zAt := func(i, k int32) float64 {
		lo, hi := s.colPtr[k], s.colPtr[k+1]
		for lo < hi {
			mid := (lo + hi) / 2
			switch {
			case s.rowInd[mid] < i:
				lo = mid + 1
			case s.rowInd[mid] > i:
				hi = mid
			default:
				return s.z[mid]
			}
		}
		return 0 // structurally absent (cannot happen for in-pattern queries)
	}

	for j := n - 1; j >= 0; j-- {
		lo, hi := s.colPtr[j], s.colPtr[j+1]
		// Off-diagonal entries first (any order); each needs columns > j.
		for p := lo + 1; p < hi; p++ {
			i := s.rowInd[p]
			var sum float64
			for q := lo + 1; q < hi; q++ {
				k := s.rowInd[q]
				a, b := i, k
				if a < b {
					a, b = b, a
				}
				sum += float64(l1[q] * zAt(a, b))
			}
			s.z[p] = -sum
		}
		// Diagonal, using this column's freshly computed entries.
		var sum float64
		for q := lo + 1; q < hi; q++ {
			sum += float64(l1[q] * s.z[q])
		}
		s.z[lo] = dinv[j] - sum
	}
	return s, nil
}

// Diag returns the diagonal of A⁻¹ in the original (unpermuted) ordering —
// the quantity PEXSI extracts for electronic-structure calculations.
func (s *SelInv) Diag() []float64 {
	st := s.f.St
	d := make([]float64, st.N)
	for k := 0; k < st.N; k++ {
		d[st.Perm[k]] = s.z[s.colPtr[k]]
	}
	return d
}

// At returns the (i, j) entry of A⁻¹ in the original ordering, provided
// the (permuted) position lies in the factor's pattern; the second return
// reports whether it does. Entries outside the pattern are generally
// nonzero in A⁻¹ but are not part of the selected set.
func (s *SelInv) At(i, j int) (float64, bool) {
	st := s.f.St
	if i < 0 || i >= st.N || j < 0 || j >= st.N {
		return 0, false
	}
	pi, pj := int(s.inv[i]), int(s.inv[j])
	if pi < pj {
		pi, pj = pj, pi
	}
	lo, hi := s.colPtr[pj], s.colPtr[pj+1]
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case int(s.rowInd[mid]) < pi:
			lo = mid + 1
		case int(s.rowInd[mid]) > pi:
			hi = mid
		default:
			return s.z[mid], true
		}
	}
	return 0, false
}

// Nnz returns the number of selected entries (lower triangle).
func (s *SelInv) Nnz() int64 { return s.colPtr[len(s.colPtr)-1] }
