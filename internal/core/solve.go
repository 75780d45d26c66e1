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

// panelMin is the narrowest supernode whose off-diagonal blocks the
// one-right-hand-side solve gathers into a dense workspace and hands to
// blas.Gemm. Below it the gather and scatter cost more than the indexed
// loops they replace; a sweep over {1, 2, 4, 8, 16, 32, ∞} found 4–16 a
// plateau (EXPERIMENTS.md "Panel solve").
const panelMin = 8

// SolveMultiCtx solves A·X = B for multiple right-hand sides under a
// context; see SolveCtx for the cancellation contract. The right-hand sides
// are permuted into one n×nrhs panel, RHS-interleaved — element (row r,
// right-hand side j) at y[r·nrhs + j] — and solved in place in one forward
// and one backward sweep, so each block of L is read once per sweep, not
// once per right-hand side. At nrhs ≥ 2 both sweeps run the interleaved
// kernels of internal/blas on the panel itself, with no workspace; at one
// right-hand side the panel is the vector, and a lane gathers a wide
// supernode's blocks into a workspace for blas.Gemm. Both sweeps run on
// the interleaved kernels with one lane filled gave the same bits but a
// slower solve, most on thin supernodes (EXPERIMENTS.md "The forward solve
// across right-hand sides"), so one right-hand side keeps its loops.
// Right-hand side j gets the bits a solve of b_j alone would: per element
// the operation sequence does not depend on nrhs. At Options.Workers > 1
// each sweep runs as a task graph on up to that many lanes, as many as the
// Ps allow (takeLanes), with the same bits.
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
	lanes := 1
	if f.Opt.Workers > 1 {
		s = f.solve.get(st)
		if len(s.units) > 1 {
			lanes = takeLanes(f.Opt.Workers)
			defer giveLanes(lanes)
		}
	}
	// One allocation holds the panel and, at one right-hand side, every
	// lane's gather workspace behind it.
	rows := 0
	if nrhs == 1 {
		if s != nil {
			rows = s.workRows
		} else {
			rows = workRows(st)
		}
	}
	buf := make([]float64, n*nrhs+lanes*rows)
	y, w := buf[:n*nrhs:n*nrhs], buf[n*nrhs:]
	for j, b := range bs {
		for k, p := range st.Perm {
			y[k*nrhs+j] = b[p]
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
		for k, p := range st.Perm {
			x[p] = y[k*nrhs+j]
		}
		out[j] = x
	}
	return out, nil
}

// workRows returns the rows a lane's gather workspace holds at one
// right-hand side: the tallest off-diagonal block of a supernode at least
// panelMin wide.
func workRows(st *symbolic.Structure) int {
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

// forward solves L·Y = B in place over supernodes first…root, pushing each
// supernode's off-diagonal blocks into the rows they update; a block whose
// rows lie past root is left to its row supernode's pull. y is the
// RHS-interleaved panel of nrhs right-hand sides; w is a lane's gather
// workspace at one right-hand side (workRows), empty at more.
func (f *Factor) forward(y []float64, nrhs int, w []float64, first, root int32) {
	st := f.St
	for k := first; k <= root; k++ {
		sn := &st.Snodes[k]
		nc, fc := sn.NCols(), int(sn.FirstCol)
		blks := st.SnodeBlocks(k)
		// Y_k ← L_kk⁻¹ Y_k (dense forward substitution).
		if nrhs > 1 {
			blas.TrsmLNInterleaved(nc, nrhs, f.Data[blks[0].ID], nc, y[fc*nrhs:(fc+nc)*nrhs], nrhs)
		} else {
			blas.Trsm(blas.Left, blas.Lower, blas.NoTrans, nc, 1, 1, f.Data[blks[0].ID], nc, y[fc:fc+nc], nc)
		}
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
// At nrhs ≥ 2 blas.GemmNNInterleaved updates the block's rows in place in
// the panel, each target row held across the columns c of Y_k, one
// right-hand side per vector lane: per element the sequence of the loop
// below.
//
// At one right-hand side a supernode at least panelMin wide gathers
// W = Y[rows] and runs W −= L_ik·Y_k as one Gemm. gemmNN forms t = −y_c
// exactly, skips t == 0 as the loop below does, and computes
// W + (−y_c)·col — y − col·y_c in IEEE 754 — so each element receives the
// same updates, rounded the same way, in the same c order.
func (f *Factor) forwardBlock(y []float64, nrhs int, w []float64, sn *symbolic.Supernode, blk *symbolic.Block) {
	nc, fc := sn.NCols(), int(sn.FirstCol)
	data := f.Data[blk.ID]
	m := int(blk.NRows)
	rows := sn.Rows[blk.RowOff : blk.RowOff+blk.NRows]
	if nrhs > 1 {
		blas.GemmNNInterleaved(m, nc, nrhs, data, m, y[fc*nrhs:(fc+nc)*nrhs], rows, y, nrhs)
		return
	}
	yk := y[fc : fc+nc]
	if nc >= panelMin {
		wk := w[:m]
		gatherRows(wk, y, rows)
		blas.Gemm(blas.NoTrans, blas.NoTrans, m, 1, nc, -1, data, m, yk, nc, 1, wk, m)
		for x, r := range rows {
			y[r] = wk[x]
		}
		return
	}
	for c, t := range yk {
		if t == 0 {
			continue
		}
		col := data[c*m : c*m+m]
		for x, r := range rows {
			y[r] -= float64(col[x] * t)
		}
	}
}

// backward solves Lᵀ·X = Y in place over supernodes root…first, descending;
// every supernode it reads past root is already solved. y and w as for
// forward.
//
// At nrhs ≥ 2 Y_k is a contiguous stretch of the panel: for each
// off-diagonal block blas.GemmTNInterleaved runs Y_k −= L_ikᵀ·X_rows,
// reading the block's rows of X, already final, in place, and
// blas.TrsmLTInterleaved then solves the diagonal. Per element those are
// the sequences of the one-vector loop below — products summed from +0 in
// x order, then subtracted; the Transpose Trsm's column loop — with a
// right-hand side per vector lane, so no sum is split or reordered.
//
// At one right-hand side (see SolveMultiCtx for why not the kernels
// above) a supernode at least panelMin wide gathers W = X[rows] per block
// and runs Y_k −= L_ikᵀ·W as one Gemm — gemmTN's dot accumulates col[x]·W[x] from 0 in x order, as
// the loop does, then adds −1·s, which is y_c − s — and a thinner one runs
// the loop.
func (f *Factor) backward(y []float64, nrhs int, w []float64, first, root int32) {
	st := f.St
	for k := root; k >= first; k-- {
		sn := &st.Snodes[k]
		nc := sn.NCols()
		fc := int(sn.FirstCol)
		blks := st.SnodeBlocks(k)
		if nrhs > 1 {
			yk := y[fc*nrhs : (fc+nc)*nrhs]
			for bi := 1; bi < len(blks); bi++ {
				blk := &blks[bi]
				m := int(blk.NRows)
				blas.GemmTNInterleaved(nc, m, nrhs, f.Data[blk.ID], m, sn.Rows[blk.RowOff:blk.RowOff+blk.NRows], y, yk, nrhs)
			}
			blas.TrsmLTInterleaved(nc, nrhs, f.Data[blks[0].ID], nc, yk, nrhs)
			continue
		}
		yk := y[fc : fc+nc]
		// Gather panel contributions: Y_k ← Y_k − Σ L_{i,k}ᵀ X_rows.
		for bi := 1; bi < len(blks); bi++ {
			blk := &blks[bi]
			data := f.Data[blk.ID]
			m := int(blk.NRows)
			rows := sn.Rows[blk.RowOff : blk.RowOff+blk.NRows]
			if nc >= panelMin {
				wk := w[:m]
				gatherRows(wk, y, rows)
				blas.Gemm(blas.Transpose, blas.NoTrans, nc, 1, m, -1, data, m, wk, m, 1, yk, nc)
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
		blas.Trsm(blas.Left, blas.Lower, blas.Transpose, nc, 1, 1, f.Data[blks[0].ID], nc, yk, nc)
	}
}

// gatherRows copies the rows of the one-right-hand-side panel y into w.
func gatherRows(w, y []float64, rows []int32) {
	for x, r := range rows {
		w[x] = y[r]
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
