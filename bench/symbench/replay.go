package main

import (
	"fmt"
	"time"

	"sympack/internal/blas"
	"sympack/internal/symbolic"
)

// kernelCensus counts what a factorization asks of internal/blas. Flop comes
// from blas.Flops*; Bytes is computed from operand sizes (each operand read
// or written once per call), not measured, so it ignores cache misses.
type kernelCensus struct {
	Potrf, Trsm, Syrk, Gemm int64
	Flop, Bytes             int64
}

func (c kernelCensus) calls() int64 { return c.Potrf + c.Trsm + c.Syrk + c.Gemm }

// replay issues the engine's exact POTRF/TRSM/SYRK/GEMM calls — same shapes,
// same leading dimensions, same operands' footprint — with no scheduling, no
// dependency tracking, no scatter and no allocation: the pure-kernel floor
// for a structure's op mix. It works on two buffers allocated once: an arena
// laid out like the factor (one region per block, so every in-place kernel
// runs once on fresh data and values stay bounded) and one update scratch.
type replay struct {
	st      *symbolic.Structure
	tg      *symbolic.TaskGraph
	off     []int // block id → arena offset
	arena   []float64
	scratch []float64
}

func newReplay(st *symbolic.Structure, tg *symbolic.TaskGraph) *replay {
	r := &replay{st: st, tg: tg, off: make([]int, len(st.Blocks)+1)}
	for i := range st.Blocks {
		b := &st.Blocks[i]
		r.off[i+1] = r.off[i] + int(b.NRows)*st.Snodes[b.Snode].NCols()
	}
	r.arena = make([]float64, r.off[len(st.Blocks)])
	maxUpd := 0
	for i := range tg.Updates {
		u := &tg.Updates[i]
		maxUpd = max(maxUpd, int(st.Blocks[u.BlkA].NRows)*int(st.Blocks[u.BlkB].NRows))
	}
	r.scratch = make([]float64, maxUpd)
	return r
}

func (r *replay) block(id int32) []float64 { return r.arena[r.off[id]:r.off[id+1]] }

// reset fills the arena with non-zero values (the kernels skip zero
// multipliers) and makes every diagonal block strictly diagonally dominant,
// so POTRF succeeds. It runs outside the timer.
func (r *replay) reset() {
	for i := range r.arena {
		r.arena[i] = 0.5 + float64(i%17)/32
	}
	for k := range r.st.Snodes {
		d := r.block(r.st.DiagBlock(int32(k)).ID)
		n := r.st.Snodes[k].NCols()
		for i := 0; i < n; i++ {
			d[i+i*n] = float64(2*n + 1)
		}
	}
}

// run walks the structure in right-looking order: per supernode its POTRF,
// its panel TRSMs, then every update it is the source of.
func (r *replay) run() (kernelCensus, error) {
	var c kernelCensus
	st, tg := r.st, r.tg
	ui := 0
	for k := range st.Snodes {
		blks := st.SnodeBlocks(int32(k))
		n := st.Snodes[k].NCols()
		diag := r.block(blks[0].ID)
		if err := blas.Potrf(blas.Lower, n, diag, n); err != nil {
			return c, fmt.Errorf("replay: supernode %d: %w", k, err)
		}
		c.Potrf++
		c.Flop += blas.FlopsPotrf(n)
		c.Bytes += 8 * int64(n*(n+1))
		for _, b := range blks[1:] {
			m := int(b.NRows)
			blas.Trsm(blas.Right, blas.Lower, blas.Transpose, m, n, 1, diag, n, r.block(b.ID), m)
			c.Trsm++
			c.Flop += blas.FlopsTrsm(blas.Right, m, n)
			c.Bytes += 8 * int64(n*(n+1)/2+2*m*n)
		}
		for ; ui < len(tg.Updates) && int(tg.Updates[ui].SrcSn) == k; ui++ {
			u := &tg.Updates[ui]
			nA, mB := int(st.Blocks[u.BlkA].NRows), int(st.Blocks[u.BlkB].NRows)
			a := r.block(u.BlkA)
			if u.IsSyrk() {
				blas.Syrk(blas.Lower, blas.NoTrans, mB, n, 1, a, mB, 0, r.scratch, mB)
				c.Syrk++
				c.Flop += blas.FlopsSyrk(mB, n)
				c.Bytes += 8 * int64(mB*n+mB*(mB+1)/2)
			} else {
				blas.Gemm(blas.NoTrans, blas.Transpose, mB, nA, n, 1, r.block(u.BlkB), mB, a, nA, 0, r.scratch, mB)
				c.Gemm++
				c.Flop += blas.FlopsGemm(mB, nA, n)
				c.Bytes += 8 * int64(mB*n+nA*n+mB*nA)
			}
		}
	}
	if ui != len(tg.Updates) {
		return c, fmt.Errorf("replay: %d of %d updates are not grouped by source supernode", len(tg.Updates)-ui, len(tg.Updates))
	}
	return c, nil
}

// peakGflops times the engine's GEMM variant at 256³, best of three: the
// compute roof replay_gflops is read against, measured in the same run.
func peakGflops() float64 {
	const n = 256
	a, b, c := make([]float64, n*n), make([]float64, n*n), make([]float64, n*n)
	for i := range a {
		a[i], b[i] = 0.5+float64(i%13)/16, 0.25+float64(i%7)/8
	}
	best := 0.0
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		blas.Gemm(blas.NoTrans, blas.Transpose, n, n, n, 1, a, n, b, n, 0, c, n)
		if gf := float64(blas.FlopsGemm(n, n, n)) / time.Since(t0).Seconds() / 1e9; gf > best {
			best = gf
		}
	}
	return best
}
