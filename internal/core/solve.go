package core

import (
	"context"
	"fmt"
	"math"

	"sympack/internal/blas"
	"sympack/internal/symbolic"
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
// gathers into a dense workspace and hands to blas.Gemm: forward, and
// backward at one right-hand side. Below it the gather and scatter cost
// more than the indexed loops they replace; a sweep over {1, 2, 4, 8, 16,
// 32, ∞} found 4–16 a plateau (EXPERIMENTS.md "Panel solve").
const panelMin = 8

// SolveMultiCtx solves A·X = B for multiple right-hand sides under a
// context; see SolveCtx for the cancellation contract. The right-hand sides
// are permuted into one n×nrhs column-major panel and solved in one forward
// and one backward sweep, so each block of L is read once per sweep, not
// once per right-hand side. Column j of the panel gets the bits a solve of
// b_j alone would: per column the operation sequence does not depend on
// nrhs. At Options.Workers > 1 each sweep runs as a task graph on up to
// that many lanes, as many as the Ps allow (takeLanes), with the same bits.
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
	// One lane runs the whole forest as one unit and builds no schedule;
	// so does a schedule of one unit, or a call the Ps leave no helper.
	var s *solveSched
	lanes, rows := 1, 0
	if f.Opt.Workers > 1 {
		s = f.solve.get(st)
		rows = s.workRows
		if len(s.units) > 1 {
			lanes = takeLanes(f.Opt.Workers)
			defer giveLanes(lanes)
		}
	} else {
		rows = workRows(st)
	}
	// One allocation holds the panel and every lane's gather workspace
	// behind it.
	buf := make([]float64, (n+lanes*rows)*nrhs)
	y, w := buf[:n*nrhs:n*nrhs], buf[n*nrhs:]
	for j, b := range bs {
		yj := y[j*n : j*n+n]
		for k, p := range st.Perm {
			yj[k] = b[p]
		}
	}
	if lanes == 1 {
		root := int32(st.NumSupernodes() - 1)
		f.forward(y, nrhs, w, 0, root)
		if err := canceled(); err != nil {
			return nil, err
		}
		f.backward(y, nrhs, w, 0, root)
	} else {
		ls := newLaneSolve(f, s, y, nrhs, w, lanes)
		if err := ls.sweep(false); err != nil {
			return nil, err
		}
		if err := canceled(); err != nil {
			return nil, err
		}
		if err := ls.sweep(true); err != nil {
			return nil, err
		}
	}
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

// workRows returns the rows a lane's gather workspace holds per
// right-hand side: the most the interleaved backward sweep holds at once,
// a supernode's width plus its tallest off-diagonal block, which is more
// than the one-right-hand-side sweep and forward gather.
func workRows(st *symbolic.Structure) int {
	rows := 0
	for k := range st.Snodes {
		nc, tallest := st.Snodes[k].NCols(), 0
		for _, blk := range st.SnodeBlocks(int32(k))[1:] {
			tallest = max(tallest, int(blk.NRows))
		}
		rows = max(rows, nc+tallest)
	}
	return rows
}

// forward solves L·Y = B in place over supernodes first…root, pushing each
// supernode's off-diagonal blocks into the rows they update; a block whose
// rows lie past root is left to its row supernode's pull. y is the n×nrhs
// panel (ld n); w is a lane's gather workspace (workRows).
func (f *Factor) forward(y []float64, nrhs int, w []float64, first, root int32) {
	st := f.St
	n := st.N
	for k := first; k <= root; k++ {
		sn := &st.Snodes[k]
		nc := sn.NCols()
		blks := st.SnodeBlocks(k)
		// Y_k ← L_kk⁻¹ Y_k (dense forward substitution).
		blas.Trsm(blas.Left, blas.Lower, blas.NoTrans, nc, nrhs, 1, f.Data[blks[0].ID], nc, y[sn.FirstCol:], n)
		for bi := 1; bi < len(blks); bi++ {
			if blks[bi].RowSn <= root {
				f.forwardBlock(y, nrhs, w, sn, &blks[bi])
			}
		}
	}
}

// pull applies to supernode t's rows every off-diagonal block that lies
// in them, in block-id order — ascending source supernode, as forward's
// pushes arrive — and then solves t's diagonal through forward.
func (f *Factor) pull(y []float64, nrhs int, w []float64, s *solveSched, t int32) {
	st := f.St
	for _, bid := range s.rows.blk[s.rows.ptr[t]:s.rows.ptr[t+1]] {
		blk := &st.Blocks[bid]
		f.forwardBlock(y, nrhs, w, &st.Snodes[blk.Snode], blk)
	}
	f.forward(y, nrhs, w, t, t)
}

// forwardBlock applies off-diagonal block blk of supernode sn:
// Y_rows ← Y_rows − L_{i,k}·Y_k.
//
// A supernode at least panelMin wide gathers W = Y[rows, :] and runs
// W −= L_ik·Y_k as one Gemm. gemmNN forms t = −y_c exactly, skips t == 0
// as the loops below do, and computes W + (−y_c)·col — y − col·y_c in IEEE
// 754 — so each element receives the same updates, rounded the same way,
// in the same c order.
func (f *Factor) forwardBlock(y []float64, nrhs int, w []float64, sn *symbolic.Supernode, blk *symbolic.Block) {
	n := f.St.N
	nc, fc := sn.NCols(), int(sn.FirstCol)
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
		return
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

// backward solves Lᵀ·X = Y in place over supernodes root…first, descending;
// every supernode it reads past root is already solved. y and w as for
// forward.
//
// At nrhs ≥ 2 it copies Y_k into w RHS-interleaved (row x's right-hand
// sides contiguous, row stride nrhs), and behind it gathers each
// off-diagonal block's rows of X, already final, in the same layout and
// runs Y_k −= L_ikᵀ·X_rows through blas.GemmTNInterleaved. It solves the
// diagonal there through blas.TrsmLTInterleaved and copies Y_k back. Per
// element those are the sequences of the one-vector loop below — products
// summed from +0 in x order, then subtracted; the Transpose Trsm's column
// loop — with a right-hand side per vector lane, so no sum is split or
// reordered.
//
// At one right-hand side the same kernels have one lane to fill and cost
// more than the scalar loops they would replace (EXPERIMENTS.md "The
// backward solve across right-hand sides"), so a supernode at least
// panelMin wide gathers W = X[rows] per block and runs Y_k −= L_ikᵀ·W as
// one Gemm — gemmTN's dot accumulates col[x]·W[x] from 0 in x order, as
// the loop does, then adds −1·s, which is y_c − s — and a thinner one runs
// the loop.
func (f *Factor) backward(y []float64, nrhs int, w []float64, first, root int32) {
	st := f.St
	n := st.N
	if nrhs > 1 {
		for k := root; k >= first; k-- {
			sn := &st.Snodes[k]
			nc := sn.NCols()
			blks := st.SnodeBlocks(k)
			xk, wk := w[:nc*nrhs], w[nc*nrhs:]
			gatherInterleaved(xk, y, sn.Rows[:nc], n, nrhs)
			for bi := 1; bi < len(blks); bi++ {
				blk := &blks[bi]
				m := int(blk.NRows)
				gatherInterleaved(wk, y, sn.Rows[blk.RowOff:blk.RowOff+blk.NRows], n, nrhs)
				blas.GemmTNInterleaved(nc, m, nrhs, f.Data[blk.ID], m, wk[:m*nrhs], xk, nrhs)
			}
			blas.TrsmLTInterleaved(nc, nrhs, f.Data[blks[0].ID], nc, xk, nrhs)
			fc := int(sn.FirstCol)
			for j := 0; j < nrhs; j++ {
				yk := y[j*n+fc : j*n+fc+nc]
				for c := range yk {
					yk[c] = xk[c*nrhs+j]
				}
			}
		}
		return
	}
	for k := root; k >= first; k-- {
		sn := &st.Snodes[k]
		nc := sn.NCols()
		fc := int(sn.FirstCol)
		blks := st.SnodeBlocks(k)
		yk := y[fc : fc+nc]
		// Gather panel contributions: Y_k ← Y_k − Σ L_{i,k}ᵀ X_rows.
		for bi := 1; bi < len(blks); bi++ {
			blk := &blks[bi]
			data := f.Data[blk.ID]
			m := int(blk.NRows)
			rows := sn.Rows[blk.RowOff : blk.RowOff+blk.NRows]
			if nc >= panelMin {
				wk := w[:m]
				gatherRows(wk, y, rows, n, 1)
				blas.Gemm(blas.Transpose, blas.NoTrans, nc, 1, m, -1, data, m, wk, m, 1, yk, n)
				continue
			}
			for c := range yk {
				col := data[c*m : c*m+m]
				var s float64
				for x, r := range rows {
					s += float64(col[x] * y[r])
				}
				yk[c] -= s
			}
		}
		// X_k ← L_kk⁻ᵀ Y_k (dense backward substitution).
		blas.Trsm(blas.Left, blas.Lower, blas.Transpose, nc, 1, 1, f.Data[blks[0].ID], nc, yk, n)
	}
}

// gatherInterleaved copies rows of the n×nrhs panel y into w,
// RHS-interleaved: w[x·nrhs + j] = y[j·n + rows[x]].
func gatherInterleaved(w, y []float64, rows []int32, n, nrhs int) {
	for x, r := range rows {
		wx := w[x*nrhs : x*nrhs+nrhs]
		for j := range wx {
			wx[j] = y[j*n+int(r)]
		}
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
