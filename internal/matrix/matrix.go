// Package matrix provides the sparse-matrix containers used throughout the
// solver: a coordinate-format builder, a compressed-sparse-column symmetric
// matrix storing the lower triangle (the representation symPACK factors),
// and readers/writers for the Matrix Market and Rutherford-Boeing formats
// used in the paper's experiments (AD/AE §A.2.4).
package matrix

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// ErrNotSquare is returned when an operation requires a square matrix.
var ErrNotSquare = errors.New("matrix: not square")

// ErrBadTriplet is returned for out-of-range COO entries.
var ErrBadTriplet = errors.New("matrix: triplet index out of range")

// COO is a coordinate-format accumulator. Duplicate entries are summed when
// the COO is compiled into a CSC matrix. For symmetric matrices, store each
// off-diagonal pair once (either triangle); ToSym folds everything into the
// lower triangle.
type COO struct {
	N       int
	Rows    []int32
	Cols    []int32
	Vals    []float64
	invalid bool
}

// NewCOO creates an empty n×n coordinate accumulator.
func NewCOO(n int) *COO { return &COO{N: n} }

// Add appends entry (i,j) += v. Out-of-range indices poison the builder and
// surface as an error from ToSym, so bulk loaders need not check every call.
func (c *COO) Add(i, j int, v float64) {
	if i < 0 || i >= c.N || j < 0 || j >= c.N {
		c.invalid = true
		return
	}
	c.Rows = append(c.Rows, int32(i))
	c.Cols = append(c.Cols, int32(j))
	c.Vals = append(c.Vals, v)
}

// SparseSym is a symmetric sparse matrix stored as the lower triangle
// (diagonal included) in compressed sparse column format. Row indices within
// each column are strictly increasing. This is the input format of the
// solver and the output format of the generators.
type SparseSym struct {
	N      int
	ColPtr []int32   // len N+1
	RowInd []int32   // len nnz(lower)
	Val    []float64 // len nnz(lower)
}

// ToSym compiles the accumulated triplets into a SparseSym, folding upper-
// triangle entries onto the lower triangle and summing duplicates. Entries
// (i,j) and (j,i) are treated as the same logical entry of the symmetric
// matrix, so exactly one of each pair should be inserted; if both are, their
// values are summed (matching common symmetric-assembly conventions).
func (c *COO) ToSym() (*SparseSym, error) {
	if c.invalid {
		return nil, ErrBadTriplet
	}
	n := c.N
	type ent struct {
		r, c int32
		v    float64
	}
	ents := make([]ent, 0, len(c.Vals))
	for k := range c.Vals {
		r, cc := c.Rows[k], c.Cols[k]
		if r < cc {
			r, cc = cc, r // fold to lower triangle
		}
		ents = append(ents, ent{r, cc, c.Vals[k]})
	}
	sort.Slice(ents, func(a, b int) bool {
		if ents[a].c != ents[b].c {
			return ents[a].c < ents[b].c
		}
		return ents[a].r < ents[b].r
	})
	s := &SparseSym{N: n, ColPtr: make([]int32, n+1)}
	for k := 0; k < len(ents); {
		e := ents[k]
		v := e.v
		k++
		for k < len(ents) && ents[k].r == e.r && ents[k].c == e.c {
			v += ents[k].v
			k++
		}
		s.RowInd = append(s.RowInd, e.r)
		s.Val = append(s.Val, v)
		s.ColPtr[e.c+1]++
	}
	for j := 0; j < n; j++ {
		s.ColPtr[j+1] += s.ColPtr[j]
	}
	return s, nil
}

// Nnz returns the number of stored (lower-triangle) nonzeros.
func (s *SparseSym) Nnz() int { return len(s.Val) }

// NnzFull returns the nonzero count of the full symmetric matrix
// (off-diagonal entries counted twice), the convention of the paper's
// Table 1.
func (s *SparseSym) NnzFull() int {
	diag := 0
	for j := 0; j < s.N; j++ {
		for p := s.ColPtr[j]; p < s.ColPtr[j+1]; p++ {
			if int(s.RowInd[p]) == j {
				diag++
			}
		}
	}
	return 2*len(s.Val) - diag
}

// At returns element (i,j) by binary search; O(log nnz(col)). Intended for
// tests and small problems, not inner loops.
func (s *SparseSym) At(i, j int) float64 {
	if i < j {
		i, j = j, i
	}
	lo := int(s.ColPtr[j])
	if p, ok := slices.BinarySearch(s.RowInd[lo:s.ColPtr[j+1]], int32(i)); ok {
		return s.Val[lo+p]
	}
	return 0
}

// Diag returns a copy of the diagonal.
func (s *SparseSym) Diag() []float64 {
	d := make([]float64, s.N)
	for j := 0; j < s.N; j++ {
		for p := s.ColPtr[j]; p < s.ColPtr[j+1]; p++ {
			if int(s.RowInd[p]) == j {
				d[j] = s.Val[p]
			}
		}
	}
	return d
}

// MulVec computes y = A·x for the full symmetric operator.
func (s *SparseSym) MulVec(x []float64) []float64 {
	y := make([]float64, s.N)
	s.MulVecTo(y, x)
	return y
}

// MulVecTo computes y = A·x in place into y (len N).
func (s *SparseSym) MulVecTo(y, x []float64) {
	for i := range y {
		y[i] = 0
	}
	for j := 0; j < s.N; j++ {
		xj := x[j]
		for p := s.ColPtr[j]; p < s.ColPtr[j+1]; p++ {
			i := int(s.RowInd[p])
			v := s.Val[p]
			y[i] += v * xj
			if i != j {
				y[j] += v * x[i]
			}
		}
	}
}

// Permute returns the symmetrically permuted matrix B = PAPᵀ, where perm is
// the new-to-old ordering: new index k corresponds to old index perm[k].
// Equivalently B[inv[i], inv[j]] = A[i,j] with inv the inverse permutation.
func (s *SparseSym) Permute(perm []int32) (*SparseSym, error) {
	n := s.N
	if len(perm) != n {
		return nil, fmt.Errorf("matrix: permutation length %d != n %d", len(perm), n)
	}
	inv := make([]int32, n)
	seen := make([]bool, n)
	for k, old := range perm {
		if old < 0 || int(old) >= n || seen[old] {
			return nil, fmt.Errorf("matrix: invalid permutation at position %d", k)
		}
		seen[old] = true
		inv[old] = int32(k)
	}
	// A symmetric permutation of a lower-stored matrix maps distinct entries
	// to distinct entries, so values only move: two stable counting passes
	// (by new row, then by new column) leave every column's rows ascending.
	nnz := len(s.Val)
	// rowEnd[r] is where new row r starts in row order, until the fill
	// below has advanced it to where the row ends.
	rowEnd := make([]int32, n+1)
	for j := 0; j < n; j++ {
		for p := s.ColPtr[j]; p < s.ColPtr[j+1]; p++ {
			rowEnd[max(inv[s.RowInd[p]], inv[j])+1]++
		}
	}
	for r := 0; r < n; r++ {
		rowEnd[r+1] += rowEnd[r]
	}
	out := &SparseSym{N: n, ColPtr: make([]int32, n+1), RowInd: make([]int32, nnz), Val: make([]float64, nnz)}
	byRowCol := make([]int32, nnz)
	byRowVal := make([]float64, nnz)
	for j := 0; j < n; j++ {
		for p := s.ColPtr[j]; p < s.ColPtr[j+1]; p++ {
			r, c := inv[s.RowInd[p]], inv[j]
			if r < c {
				r, c = c, r // fold to lower triangle
			}
			q := rowEnd[r]
			rowEnd[r]++
			byRowCol[q], byRowVal[q] = c, s.Val[p]
			out.ColPtr[c+1]++
		}
	}
	for c := 0; c < n; c++ {
		out.ColPtr[c+1] += out.ColPtr[c]
	}
	next := append([]int32(nil), out.ColPtr[:n]...)
	q := int32(0)
	for r := 0; r < n; r++ {
		for ; q < rowEnd[r]; q++ {
			c := byRowCol[q]
			out.RowInd[next[c]], out.Val[next[c]] = int32(r), byRowVal[q]
			next[c]++
		}
	}
	return out, nil
}

// Scale returns a copy of s with all values multiplied by alpha.
func (s *SparseSym) Scale(alpha float64) *SparseSym {
	out := s.Clone()
	for i := range out.Val {
		out.Val[i] *= alpha
	}
	return out
}

// ShiftDiag returns A + sigma·I, the operation the PEXSI-style repeated
// factorization example performs. The sparsity pattern is unchanged
// (a missing structural diagonal entry is an error: the generators always
// emit diagonals).
func (s *SparseSym) ShiftDiag(sigma float64) (*SparseSym, error) {
	out := s.Clone()
	for j := 0; j < s.N; j++ {
		found := false
		for p := out.ColPtr[j]; p < out.ColPtr[j+1]; p++ {
			if int(out.RowInd[p]) == j {
				out.Val[p] += sigma
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("matrix: column %d has no structural diagonal entry", j)
		}
	}
	return out, nil
}

// Clone returns a deep copy.
func (s *SparseSym) Clone() *SparseSym {
	return &SparseSym{
		N:      s.N,
		ColPtr: append([]int32(nil), s.ColPtr...),
		RowInd: append([]int32(nil), s.RowInd...),
		Val:    append([]float64(nil), s.Val...),
	}
}

// Dense materializes the full symmetric matrix into a column-major n×n
// buffer; for tests and small reference computations only.
func (s *SparseSym) Dense() []float64 {
	d := make([]float64, s.N*s.N)
	for j := 0; j < s.N; j++ {
		for p := s.ColPtr[j]; p < s.ColPtr[j+1]; p++ {
			i := int(s.RowInd[p])
			d[i+j*s.N] = s.Val[p]
			d[j+i*s.N] = s.Val[p]
		}
	}
	return d
}

// Validate checks structural invariants: sorted strictly-increasing row
// indices per column, indices in [j, n), monotone ColPtr. It returns a
// descriptive error for the first violation found.
func (s *SparseSym) Validate() error {
	if s.N < 0 || s.N >= math.MaxInt32 || len(s.ColPtr) != s.N+1 {
		return fmt.Errorf("matrix: ColPtr length %d != N+1 (N = %d)", len(s.ColPtr), s.N)
	}
	if s.ColPtr[0] != 0 {
		return errors.New("matrix: ColPtr[0] != 0")
	}
	if int(s.ColPtr[s.N]) != len(s.RowInd) || len(s.RowInd) != len(s.Val) {
		return errors.New("matrix: inconsistent array lengths")
	}
	for j := 0; j < s.N; j++ {
		// Bounded by ColPtr[N] = len(RowInd), so RowInd[p] below is in range.
		if s.ColPtr[j+1] < s.ColPtr[j] || s.ColPtr[j+1] > s.ColPtr[s.N] {
			return fmt.Errorf("matrix: ColPtr not monotone at column %d", j)
		}
		prev := int32(j) - 1
		for p := s.ColPtr[j]; p < s.ColPtr[j+1]; p++ {
			r := s.RowInd[p]
			if r < int32(j) || r >= int32(s.N) {
				return fmt.Errorf("matrix: row %d out of range in column %d", r, j)
			}
			if r <= prev {
				return fmt.Errorf("matrix: unsorted/duplicate row %d in column %d", r, j)
			}
			prev = r
		}
	}
	return nil
}

// NormFro returns the Frobenius norm of the full symmetric matrix.
func (s *SparseSym) NormFro() float64 {
	var sum float64
	for j := 0; j < s.N; j++ {
		for p := s.ColPtr[j]; p < s.ColPtr[j+1]; p++ {
			v := s.Val[p] * s.Val[p]
			if int(s.RowInd[p]) == j {
				sum += v
			} else {
				sum += 2 * v
			}
		}
	}
	return math.Sqrt(sum)
}
