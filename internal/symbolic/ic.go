package symbolic

// Incomplete-Cholesky symbolic analysis: the IC(k) level-of-fill variant of
// Analyze, after Kim et al.'s partitioned-block incomplete Cholesky
// (PAPERS.md) which reuses exactly this supernodal machinery to build a
// preconditioner instead of a full factor. The pipeline is Analyze's —
// fill-reducing ordering, etree, postorder — but the column patterns keep
// only fill whose level stays ≤ k:
//
//	lev(i,j) = 0                                   for a_ij ≠ 0
//	lev(i,j) = min over c<j of lev(i,c)+lev(j,c)+1 for generated fill
//
// plus an optional magnitude pre-filter (DropTol τ: off-diagonal entries
// with |a_ij| < τ·√(|a_ii|·|a_jj|) are removed from the matrix before level
// expansion). The resulting Structure has Incomplete set: the update-closure
// invariant is deliberately broken, and BuildTaskGraph / the engine's
// scatter skip contributions whose target block or row was dropped.

import (
	"math"
	"slices"

	"sympack/internal/etree"
	"sympack/internal/matrix"
	"sympack/internal/ordering"
)

// ICOptions tunes the incomplete analysis.
type ICOptions struct {
	// Level is the maximum fill level k retained. 0 keeps exactly the
	// pattern of A (plus the supernode trapezoid padding); higher levels
	// approach the complete factor.
	Level int
	// DropTol, when positive, removes off-diagonal entries of the permuted
	// matrix with |a_ij| < DropTol·√(|a_ii|·|a_jj|) before level expansion.
	// The filtered matrix is what AnalyzeIC returns, so the numeric phase
	// factors exactly what the pattern describes.
	DropTol float64
}

// AnalyzeIC runs the incomplete symbolic phase and returns the IC(k)
// structure plus the permuted (and, with DropTol, filtered) matrix the
// numeric phase should factor. opt.RelaxRatio is ignored: amalgamation
// introduces explicit zeros, which for a preconditioner would dilute the
// drop rule; supernodes here are strict pattern-equality groups, width-cap
// aside.
func AnalyzeIC(a *matrix.SparseSym, ord ordering.Kind, opt Options, ic ICOptions) (*Structure, *matrix.SparseSym, error) {
	if ic.Level < 0 {
		ic.Level = 0
	}
	a2, perm, tree, err := orderAndPostorder(a, ord)
	if err != nil {
		return nil, nil, err
	}
	if ic.DropTol > 0 {
		// Dropping entries changes the pattern the tree describes.
		a2 = dropFilter(a2, ic.DropTol)
		tree = etree.Compute(a2)
	}

	st := &Structure{N: a.N, Perm: perm, Tree: tree, Incomplete: true}
	pattern := icPattern(a2, ic.Level)
	st.ColCount = make([]int32, a.N)
	for j := range pattern {
		st.ColCount[j] = int32(len(pattern[j])) + 1
	}
	st.buildICPartition(pattern, opt.MaxSupernodeSize)
	st.buildBlocks()
	st.buildSnTree()
	st.computeCosts()
	return st, a2, nil
}

// dropFilter returns a copy of a with small off-diagonal entries removed:
// |a_ij| < τ·√(|a_ii|·|a_jj|). Diagonal entries always survive. Columns are
// filtered in place of a fresh CSC, so row order is preserved.
func dropFilter(a *matrix.SparseSym, tau float64) *matrix.SparseSym {
	d := a.Diag()
	out := &matrix.SparseSym{N: a.N, ColPtr: make([]int32, a.N+1)}
	for j := 0; j < a.N; j++ {
		dj := math.Abs(d[j])
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			r := a.RowInd[p]
			v := a.Val[p]
			if int(r) != j && math.Abs(v) < tau*math.Sqrt(dj*math.Abs(d[r])) {
				continue
			}
			out.RowInd = append(out.RowInd, r)
			out.Val = append(out.Val, v)
		}
		out.ColPtr[j+1] = int32(len(out.RowInd))
	}
	return out
}

// icPattern computes the IC(k) column patterns: pattern[j] lists the
// off-diagonal rows i > j of column j, ascending, each with fill level ≤ k.
// The classic left-to-right sweep: when column c is finalized it registers
// itself with every later column j of its pattern that could still generate
// admissible fill (lev(j,c)+1 ≤ k); finalizing j then merges each such c's
// rows at candidate level lev(i,c)+lev(j,c)+1, keeping the minimum.
func icPattern(a *matrix.SparseSym, k int) [][]int32 {
	n := a.N
	pattern := make([][]int32, n)
	levels := make([][]int32, n)
	// hitCols[j] lists finalized columns c whose pattern contains j with a
	// level low enough to generate fill in column j; hitLev[j] the matching
	// lev(j,c).
	hitCols := make([][]int32, n)
	hitLev := make([][]int32, n)
	lev := make([]int32, n) // dense workspace, sentinel k+1
	for i := range lev {
		lev[i] = int32(k) + 1
	}
	var touched []int32
	for j := 0; j < n; j++ {
		touched = touched[:0]
		// Level 0: entries of A below the diagonal.
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			r := a.RowInd[p]
			if int(r) == j {
				continue
			}
			if lev[r] > 0 {
				if lev[r] == int32(k)+1 {
					touched = append(touched, r)
				}
				lev[r] = 0
			}
		}
		// Generated fill via each registered earlier column.
		for x, c := range hitCols[j] {
			levJC := hitLev[j][x]
			pc := pattern[c]
			lc := levels[c]
			for y, i := range pc {
				if int(i) <= j {
					continue
				}
				cand := lc[y] + levJC + 1
				if cand > int32(k) {
					continue
				}
				if lev[i] > cand {
					if lev[i] == int32(k)+1 {
						touched = append(touched, i)
					}
					lev[i] = cand
				}
			}
		}
		hitCols[j], hitLev[j] = nil, nil
		slices.Sort(touched)
		rows := make([]int32, len(touched))
		lvls := make([]int32, len(touched))
		copy(rows, touched)
		for y, r := range rows {
			lvls[y] = lev[r]
			lev[r] = int32(k) + 1 // reset workspace
		}
		pattern[j], levels[j] = rows, lvls
		// Register with later columns that can still receive fill through j.
		for y, r := range rows {
			if lvls[y]+1 <= int32(k) {
				hitCols[r] = append(hitCols[r], int32(j))
				hitLev[r] = append(hitLev[r], lvls[y])
			}
		}
	}
	return pattern
}

// buildICPartition groups columns into strict supernodes — consecutive
// columns whose patterns nest exactly, pattern(j-1) = {j} ∪ pattern(j), so
// the dense trapezoid stores no entry the IC pattern dropped — applies the
// width cap, and fills Snodes (with exact Rows), SnOf.
func (st *Structure) buildICPartition(pattern [][]int32, maxW int) {
	n := st.N
	var parts []partition
	fc := int32(0)
	for j := 1; j <= n; j++ {
		grow := j < n && nests(pattern[j-1], pattern[j], int32(j)) &&
			(maxW <= 0 || int(int32(j)-fc) < maxW)
		if !grow {
			lc := int32(j - 1)
			parts = append(parts, partition{fc: fc, lc: lc, off: int32(len(pattern[lc]))})
			fc = int32(j)
		}
	}
	st.Snodes = make([]Supernode, len(parts))
	st.SnOf = make([]int32, n)
	for id, p := range parts {
		full := make([]int32, 0, int(p.lc-p.fc+1)+len(pattern[p.lc]))
		for c := p.fc; c <= p.lc; c++ {
			full = append(full, c)
		}
		full = append(full, pattern[p.lc]...)
		st.Snodes[id] = Supernode{ID: int32(id), FirstCol: p.fc, LastCol: p.lc, Rows: full}
		for c := p.fc; c <= p.lc; c++ {
			st.SnOf[c] = int32(id)
		}
	}
}

// nests reports whether prev = {next-col} ∪ cur, the pattern-equality rule
// that admits column next-col into the supernode of its predecessor.
func nests(prev, cur []int32, col int32) bool {
	if len(prev) != len(cur)+1 || len(prev) == 0 || prev[0] != col {
		return false
	}
	for i, r := range cur {
		if prev[i+1] != r {
			return false
		}
	}
	return true
}
