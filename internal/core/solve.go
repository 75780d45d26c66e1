package core

import (
	"context"
	"fmt"
	"math"

	"sympack/internal/blas"
)

// Solve solves A·x = b for the original (unpermuted) right-hand side b,
// returning x in the original ordering. It runs the supernodal forward and
// backward substitutions over the factor blocks.
func (f *Factor) Solve(b []float64) ([]float64, error) {
	x, err := f.SolveMulti([][]float64{b})
	if err != nil {
		return nil, err
	}
	return x[0], nil
}

// SolveMulti solves A·X = B for multiple right-hand sides.
func (f *Factor) SolveMulti(bs [][]float64) ([][]float64, error) {
	return f.SolveMultiCtx(nil, bs)
}

// SolveCtx is Solve bounded by a context: it is consulted before the
// forward sweep and between the two sweeps, and a canceled or expired one
// aborts the solve with an error wrapping ErrCanceled. A nil context means
// no bound.
func (f *Factor) SolveCtx(ctx context.Context, b []float64) ([]float64, error) {
	x, err := f.SolveMultiCtx(ctx, [][]float64{b})
	if err != nil {
		return nil, err
	}
	return x[0], nil
}

// panelMin is the narrowest supernode whose off-diagonal blocks the solve
// gathers into a dense workspace and hands to blas.Gemm. Below it the
// gather and scatter cost more than the indexed loops they replace; a sweep
// over {1, 2, 4, 8, 16, 32, ∞} found 4–16 a plateau (EXPERIMENTS.md "Panel
// solve").
const panelMin = 8

// SolveMultiCtx solves A·X = B for multiple right-hand sides under a
// context; see SolveCtx for the cancellation contract. The right-hand sides
// are permuted into one n×nrhs column-major panel and solved in one forward
// and one backward sweep, so each block of L is read once per sweep, not
// once per right-hand side. Column j of the panel gets the bits a solve of
// b_j alone would: per column the operation sequence does not depend on
// nrhs.
func (f *Factor) SolveMultiCtx(ctx context.Context, bs [][]float64) ([][]float64, error) {
	st := f.St
	n := st.N
	nrhs := len(bs)
	for ri, b := range bs {
		if len(b) != n {
			return nil, fmt.Errorf("core: rhs %d has length %d, want %d", ri, len(b), n)
		}
	}
	canceled := func() error {
		if ctx == nil {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("%w: %v", ErrCanceled, err)
		}
		return nil
	}
	out := make([][]float64, nrhs)
	if nrhs == 0 {
		return out, nil
	}
	if err := canceled(); err != nil {
		return nil, err
	}
	// One allocation holds the panel and the gather workspace behind it.
	buf := make([]float64, (n+f.panelRows())*nrhs)
	y, w := buf[:n*nrhs:n*nrhs], buf[n*nrhs:]
	for j, b := range bs {
		yj := y[j*n : j*n+n]
		for k, p := range st.Perm {
			yj[k] = b[p]
		}
	}
	f.forward(y, nrhs, w)
	if err := canceled(); err != nil {
		return nil, err
	}
	f.backward(y, nrhs, w)
	for j := range out {
		x := make([]float64, n)
		yj := y[j*n : j*n+n]
		for k, p := range st.Perm {
			x[p] = yj[k]
		}
		out[j] = x
	}
	return out, nil
}

// panelRows returns the tallest off-diagonal block of a supernode at least
// panelMin wide: the gather workspace holds that many rows per right-hand
// side. It is computed per call, not kept on the factor, so concurrent
// solves share nothing writable.
func (f *Factor) panelRows() int {
	st := f.St
	rows := 0
	for k := range st.Snodes {
		if st.Snodes[k].NCols() < panelMin {
			continue
		}
		for _, blk := range st.SnodeBlocks(int32(k))[1:] {
			rows = max(rows, int(blk.NRows))
		}
	}
	return rows
}

// forward solves L·Y = B in place over the supernodal blocks. y is the
// n×nrhs panel (ld n); w is the gather workspace, panelRows()×nrhs.
//
// A supernode at least panelMin wide gathers W = Y[rows, :] for each
// off-diagonal block and runs W −= L_ik·Y_k as one Gemm. gemmNN forms
// t = −y_c exactly, skips t == 0 as the loops below do, and computes
// W + (−y_c)·col — y − col·y_c in IEEE 754 — so each element receives the
// same updates, rounded the same way, in the same c order.
func (f *Factor) forward(y []float64, nrhs int, w []float64) {
	st := f.St
	n := st.N
	for k := 0; k < st.NumSupernodes(); k++ {
		sn := &st.Snodes[k]
		nc := sn.NCols()
		fc := int(sn.FirstCol)
		blks := st.SnodeBlocks(int32(k))
		// Y_k ← L_kk⁻¹ Y_k (dense forward substitution).
		blas.Trsm(blas.Left, blas.Lower, blas.NoTrans, nc, nrhs, 1, f.Data[blks[0].ID], nc, y[fc:], n)
		// Panel updates: Y_rows ← Y_rows − L_{i,k} · Y_k.
		for bi := 1; bi < len(blks); bi++ {
			blk := &blks[bi]
			data := f.Data[blk.ID]
			m := int(blk.NRows)
			rows := sn.Rows[blk.RowOff : blk.RowOff+blk.NRows]
			if nc >= panelMin {
				wk := w[:m*nrhs]
				gatherRows(wk, y, rows, n, nrhs)
				blas.Gemm(blas.NoTrans, blas.NoTrans, m, nrhs, nc, -1, data, m, y[fc:], n, 1, wk, m)
				for j := 0; j < nrhs; j++ {
					yj, wj := y[j*n:j*n+n], wk[j*m:j*m+m]
					for x, r := range rows {
						yj[r] = wj[x]
					}
				}
				continue
			}
			for j := 0; j < nrhs; j++ {
				yj := y[j*n : j*n+n]
				for c, t := range yj[fc : fc+nc] {
					if t == 0 {
						continue
					}
					col := data[c*m : c*m+m]
					for x, r := range rows {
						yj[r] -= float64(col[x] * t)
					}
				}
			}
		}
	}
}

// backward solves Lᵀ·X = Y in place over the supernodal blocks; y and w as
// for forward.
//
// A supernode at least panelMin wide gathers W = X[rows, :] for each
// off-diagonal block and runs Y_k −= L_ikᵀ·W as one Gemm. gemmTN's dot
// accumulates col[x]·W[x] from 0 in x order, as the loop below does, then
// adds −1·s, which is y_c − s.
func (f *Factor) backward(y []float64, nrhs int, w []float64) {
	st := f.St
	n := st.N
	for k := st.NumSupernodes() - 1; k >= 0; k-- {
		sn := &st.Snodes[k]
		nc := sn.NCols()
		fc := int(sn.FirstCol)
		blks := st.SnodeBlocks(int32(k))
		// Gather panel contributions: Y_k ← Y_k − Σ L_{i,k}ᵀ X_rows.
		for bi := 1; bi < len(blks); bi++ {
			blk := &blks[bi]
			data := f.Data[blk.ID]
			m := int(blk.NRows)
			rows := sn.Rows[blk.RowOff : blk.RowOff+blk.NRows]
			if nc >= panelMin {
				wk := w[:m*nrhs]
				gatherRows(wk, y, rows, n, nrhs)
				blas.Gemm(blas.Transpose, blas.NoTrans, nc, nrhs, m, -1, data, m, wk, m, 1, y[fc:], n)
				continue
			}
			for j := 0; j < nrhs; j++ {
				yj := y[j*n : j*n+n]
				yk := yj[fc : fc+nc]
				for c := range yk {
					col := data[c*m : c*m+m]
					var s float64
					for x, r := range rows {
						s += float64(col[x] * yj[r])
					}
					yk[c] -= s
				}
			}
		}
		// X_k ← L_kk⁻ᵀ Y_k (dense backward substitution).
		blas.Trsm(blas.Left, blas.Lower, blas.Transpose, nc, nrhs, 1, f.Data[blks[0].ID], nc, y[fc:], n)
	}
}

// gatherRows copies rows of the n×nrhs panel y into the len(rows)×nrhs
// matrix w (ld len(rows)).
func gatherRows(w, y []float64, rows []int32, n, nrhs int) {
	m := len(rows)
	for j := 0; j < nrhs; j++ {
		yj, wj := y[j*n:j*n+n], w[j*m:j*m+m]
		for x, r := range rows {
			wj[x] = yj[r]
		}
	}
}

// ResidualNorm returns ‖b − A·x‖₂ / ‖b‖₂ for the original matrix a, a
// convenience for examples and tests.
func ResidualNorm(a interface{ MulVecTo(y, x []float64) }, x, b []float64) float64 {
	ax := make([]float64, len(x))
	a.MulVecTo(ax, x)
	var rr, bb float64
	for i := range b {
		d := b[i] - ax[i]
		rr += float64(d * d)
		bb += float64(b[i] * b[i])
	}
	if bb == 0 {
		return math.Sqrt(rr)
	}
	return math.Sqrt(rr / bb)
}
