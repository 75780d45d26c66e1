// Package baseline implements the comparison solver of the paper's
// evaluation (§5.3): a right-looking supernodal Cholesky in the PaStiX
// mold. Where symPACK (internal/core) schedules block tasks dynamically and
// communicates with one-sided notifications, the baseline sweeps supernodes
// left to right, eagerly pushing each factored panel's updates into the
// trailing matrix — the classic right-looking discipline. The numeric code
// here is a second, independently structured implementation of the same
// factorization, which the tests use to cross-validate internal/core; its
// distributed-memory performance personality (two-sided rendezvous
// messaging, host-staged GPU copies, level-synchronized scheduling) lives
// in internal/des.
package baseline

import (
	"fmt"

	"sympack/internal/blas"
	"sympack/internal/matrix"
	"sympack/internal/ordering"
	"sympack/internal/symbolic"
)

// Factor holds a completed baseline factorization, storing each supernode
// as one dense trapezoid (PaStiX's column-block layout) rather than
// symPACK's per-block storage.
type Factor struct {
	St *symbolic.Structure
	// Panels[k] is supernode k's dense storage, column-major,
	// ld = NRows(k).
	Panels [][]float64
}

// Factorize analyses a under the ordering ord (nested dissection when
// zero) and symbolic.DefaultOptions, then computes the right-looking
// supernodal factorization.
func Factorize(a *matrix.SparseSym, ord ordering.Kind) (*Factor, error) {
	st, pa, err := symbolic.Analyze(a, ord, symbolic.DefaultOptions())
	if err != nil {
		return nil, err
	}
	return FactorizeAnalyzed(st, pa)
}

// FactorizeAnalyzed factors with an existing symbolic analysis (pa is the
// permuted matrix from symbolic.Analyze).
func FactorizeAnalyzed(st *symbolic.Structure, pa *matrix.SparseSym) (*Factor, error) {
	f := &Factor{St: st, Panels: make([][]float64, st.NumSupernodes())}
	// Allocate and assemble panels.
	for k := range st.Snodes {
		sn := &st.Snodes[k]
		f.Panels[k] = make([]float64, sn.NRows()*sn.NCols())
	}
	for j := 0; j < pa.N; j++ {
		k := st.SnOf[j]
		sn := &st.Snodes[k]
		ld := sn.NRows()
		col := int(int32(j) - sn.FirstCol)
		for p := pa.ColPtr[j]; p < pa.ColPtr[j+1]; p++ {
			r := pa.RowInd[p]
			pos := rowPos(sn.Rows, r)
			if pos < 0 {
				return nil, fmt.Errorf("baseline: entry (%d,%d) outside structure", r, j)
			}
			f.Panels[k][pos+col*ld] = pa.Val[p]
		}
	}
	// Right-looking sweep.
	for k := range st.Snodes {
		if err := f.factorPanel(int32(k)); err != nil {
			return nil, err
		}
		f.updateTrailing(int32(k))
	}
	return f, nil
}

// rowPos locates global row r in a sorted row list, -1 if absent.
func rowPos(rows []int32, r int32) int {
	lo, hi := 0, len(rows)
	for lo < hi {
		mid := (lo + hi) / 2
		if rows[mid] < r {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(rows) || rows[lo] != r {
		return -1
	}
	return lo
}

// factorPanel runs POTRF on the diagonal block and TRSM on the subdiagonal
// part of supernode k, in place.
func (f *Factor) factorPanel(k int32) error {
	sn := &f.St.Snodes[k]
	nc := sn.NCols()
	nr := sn.NRows()
	panel := f.Panels[k]
	if err := blas.Potrf(blas.Lower, nc, panel, nr); err != nil {
		return fmt.Errorf("baseline: supernode %d: %w", k, err)
	}
	if nr > nc {
		blas.Trsm(blas.Right, blas.Lower, blas.Transpose, nr-nc, nc, 1, panel, nr, panel[nc:], nr)
	}
	return nil
}

// updateTrailing applies supernode k's outer-product updates to every
// ancestor supernode it touches — the "look to the right" of §2.3.
func (f *Factor) updateTrailing(k int32) {
	st := f.St
	sn := &st.Snodes[k]
	nc := sn.NCols()
	nr := sn.NRows()
	if nr == nc {
		return
	}
	panel := f.Panels[k]
	below := sn.Rows[nc:] // off-diagonal rows
	sub := panel[nc:]     // subdiagonal panel, ld = nr
	// Scratch for the full outer product W = sub·subᵀ (lower triangle).
	m := nr - nc
	w := make([]float64, m*m)
	blas.Syrk(blas.Lower, blas.NoTrans, m, nc, 1, sub, nr, 0, w, m)
	// Scatter W into ancestor panels: entry (x, y) of W updates global
	// (below[x], below[y]), x ≥ y, which lives in the panel of the
	// supernode owning column below[y].
	for y := 0; y < m; y++ {
		colG := below[y]
		t := st.SnOf[colG]
		tsn := &st.Snodes[t]
		ld := tsn.NRows()
		colL := int(colG - tsn.FirstCol)
		tp := f.Panels[t]
		for x := y; x < m; x++ {
			pos := rowPos(tsn.Rows, below[x])
			if pos < 0 {
				panic("baseline: fill row missing from ancestor structure")
			}
			tp[pos+colL*ld] -= w[x+y*m]
		}
	}
}

// L returns the factor entry at permuted position (i, j), 0 when outside
// the structure.
func (f *Factor) L(i, j int32) float64 {
	if i < j {
		return 0
	}
	st := f.St
	k := st.SnOf[j]
	sn := &st.Snodes[k]
	pos := rowPos(sn.Rows, i)
	if pos < 0 {
		return 0
	}
	return f.Panels[k][pos+int(j-sn.FirstCol)*sn.NRows()]
}

// Solve solves A·x = b (original ordering) using the factor.
func (f *Factor) Solve(b []float64) ([]float64, error) {
	st := f.St
	n := st.N
	if len(b) != n {
		return nil, fmt.Errorf("baseline: rhs length %d, want %d", len(b), n)
	}
	y := make([]float64, n)
	for kk := 0; kk < n; kk++ {
		y[kk] = b[st.Perm[kk]]
	}
	// Forward.
	for k := 0; k < st.NumSupernodes(); k++ {
		sn := &st.Snodes[k]
		nc, nr := sn.NCols(), sn.NRows()
		panel := f.Panels[k]
		yk := y[sn.FirstCol : int(sn.FirstCol)+nc]
		blas.Trsm(blas.Left, blas.Lower, blas.NoTrans, nc, 1, 1, panel, nr, yk, nc)
		for c := 0; c < nc; c++ {
			t := yk[c]
			if t == 0 {
				continue
			}
			col := panel[c*nr : c*nr+nr]
			for x := nc; x < nr; x++ {
				y[sn.Rows[x]] -= col[x] * t
			}
		}
	}
	// Backward.
	for k := st.NumSupernodes() - 1; k >= 0; k-- {
		sn := &st.Snodes[k]
		nc, nr := sn.NCols(), sn.NRows()
		panel := f.Panels[k]
		yk := y[sn.FirstCol : int(sn.FirstCol)+nc]
		for c := 0; c < nc; c++ {
			col := panel[c*nr : c*nr+nr]
			var s float64
			for x := nc; x < nr; x++ {
				s += col[x] * y[sn.Rows[x]]
			}
			yk[c] -= s
		}
		blas.Trsm(blas.Left, blas.Lower, blas.Transpose, nc, 1, 1, panel, nr, yk, nc)
	}
	x := make([]float64, n)
	for kk := 0; kk < n; kk++ {
		x[st.Perm[kk]] = y[kk]
	}
	return x, nil
}
