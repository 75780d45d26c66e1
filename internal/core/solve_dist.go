package core

import (
	"fmt"

	"sympack/internal/blas"
	"sympack/internal/faults"
	"sympack/internal/machine"
	"sympack/internal/simnet"
	"sympack/internal/symbolic"
	"sympack/internal/upcxx"
)

// SolveDistributed solves A·x = b with the supernodal triangular solves
// executed across the factorization's rank layout: forward substitution
// fans each solved supernode segment out to its panel-block owners, whose
// contributions fan in (as aggregate vectors, §2.3's second message kind)
// to the segment owners of the target supernodes; the backward pass is the
// same sweep with the roles of a block's row and column supernode swapped.
// Communication uses the same RPC-notification machinery as the
// factorization.
//
// Unlike Solve it writes to the factor (SolveStats, Metrics), so calls on
// one Factor must not overlap.
func (f *Factor) SolveDistributed(b []float64) ([]float64, error) {
	st := f.St
	n := st.N
	if len(b) != n {
		return nil, fmt.Errorf("core: rhs length %d, want %d", len(b), n)
	}
	opt := f.Opt
	// The solve's one-shot aggregate-vector RPCs are not idempotent the way
	// the factorization's announcements are, so only generic faults (delays,
	// failing transfers, rank stalls) are injected; drop/dup target the
	// factor-announcement protocol and would wedge or corrupt a solve.
	rt, err := newRuntime(opt, newInjector(opt).Restrict(
		faults.DelaySignal, faults.TransientTransfer, faults.RankStall))
	if err != nil {
		return nil, err
	}
	m2d := symbolic.NewBlockMap(opt.Mapping, opt.Ranks, st)

	// The one vector of the solve, in factor ordering: b on entry, y after
	// the forward sweep, x after the backward one. Segment k is written only
	// by segOwner(k); another rank reads it only after the owner's RPC told
	// it the segment is final for the sweep.
	y := make([]float64, n)
	for k := range y {
		y[k] = b[st.Perm[k]]
	}

	// Off-diagonal block ids grouped by row supernode (the backward sweep's
	// fan-out), as a CSR filled in block-id order. Counting at i+2 leaves
	// rowPtr[i+1] at the start of row i after the prefix sum, so the fill's
	// cursor increments turn it into the end of row i — the start of i+1.
	nsn := st.NumSupernodes()
	rowPtr := make([]int32, nsn+2)
	for bi := range st.Blocks {
		if bl := &st.Blocks[bi]; !bl.IsDiag() {
			rowPtr[bl.RowSn+2]++
		}
	}
	for i := 2; i < len(rowPtr); i++ {
		rowPtr[i] += rowPtr[i-1]
	}
	rowBlk := make([]int32, rowPtr[nsn+1])
	for bi := range st.Blocks {
		if bl := &st.Blocks[bi]; !bl.IsDiag() {
			rowBlk[rowPtr[bl.RowSn+1]] = bl.ID
			rowPtr[bl.RowSn+1]++
		}
	}

	// Every rank's share is set up here, before the ranks run, so a handler
	// may reach any peer from the first message on. A rank's tasks are two
	// sweeps × (the segments + the panel blocks it owns).
	start := machine.WallNow()
	ranks := make([]*solveRank, opt.Ranks)
	for p := range ranks {
		ranks[p] = &solveRank{
			f: f, m2d: m2d, peers: ranks, y: y, rowPtr: rowPtr, rowBlk: rowBlk,
			count: make([]int32, nsn), sent: make([]int32, opt.Ranks),
		}
	}
	for bi := range st.Blocks {
		bl := &st.Blocks[bi]
		owner := symbolic.OwnerOfBlock(m2d, bl)
		if bl.IsDiag() {
			owner = ranks[0].segOwner(bl.Snode)
		}
		ranks[owner].total += 2
	}
	if err := rt.Run(func(r *upcxx.Rank) { ranks[r.ID].run(r) }); err != nil {
		return nil, err
	}
	f.SolveStats.Wall = machine.WallSince(start)
	f.SolveStats.ModelSeconds = 0
	for _, e := range ranks {
		if s := e.r.Elapsed(); s > f.SolveStats.ModelSeconds {
			f.SolveStats.ModelSeconds = s
		}
	}
	// The solve's communication joins the factorization's in the one
	// registry. Import merges (counters add, peak gauges take the maximum),
	// so the factorization's device gauges stand.
	if f.Metrics != nil {
		f.Metrics.Import(rt.Metrics().Snapshot())
	}
	// Permute back to the original ordering.
	x := make([]float64, n)
	for k, v := range y {
		x[st.Perm[k]] = v
	}
	return x, nil
}

// SolveDistributedMulti runs the distributed solve for several right-hand
// sides in sequence, reusing the factor.
func (f *Factor) SolveDistributedMulti(bs [][]float64) ([][]float64, error) {
	out := make([][]float64, len(bs))
	for i, b := range bs {
		x, err := f.SolveDistributed(b)
		if err != nil {
			return nil, fmt.Errorf("core: rhs %d: %w", i, err)
		}
		out[i] = x
	}
	return out, nil
}

// solveTask is one unit of solve work on a rank, in either sweep (back
// false: forward substitution, true: backward).
//
//	diagonal, id = supernode k:  forward y_k = L_kk⁻¹ y_k, backward y_k = L_kk⁻ᵀ y_k
//	panel, id = block B_{i,k}:   forward c = L_{i,k}·y_k updates segment i,
//	                             backward c = L_{i,k}ᵀ·y_i updates segment k
type solveTask struct {
	panel, back bool
	id          int32
}

// solveRank is one rank's share of a distributed solve. A sweep is the same
// dataflow in both directions: a segment whose updates have all arrived is
// solved against its diagonal block and announced to the ranks owning the
// blocks that read it; each such block turns it into a contribution to the
// segment at its other end. Forward the readers of segment k are supernode
// k's own column blocks and a block updates its row supernode; backward the
// readers are the blocks whose rows lie in k and a block updates its column
// supernode.
type solveRank struct {
	r     *upcxx.Rank
	f     *Factor
	m2d   symbolic.BlockMap
	peers []*solveRank

	y              []float64 // the permuted vector, shared by all ranks
	rowPtr, rowBlk []int32   // off-diagonal block ids by row supernode (CSR)

	// count[k] is the number of updates segment k still waits for in the
	// current sweep; only segOwner(k)'s entry is used.
	count []int32
	// sent[p] == stamp marks rank p as already told about the segment being
	// fanned out (one message per rank, however many of its blocks read it).
	sent  []int32
	stamp int32

	// rtq is a FIFO with room for all of the rank's tasks, each of which is
	// pushed exactly once; head counts the tasks done.
	rtq         []solveTask
	head, total int
}

// segOwner returns the rank owning supernode k's segment of the vector.
// Segments are distributed 1D-cyclically: the 2D block map would place
// every diagonal block on the process grid's diagonal (few distinct ranks),
// serializing the solve's diagonal chain.
func (e *solveRank) segOwner(k int32) int { return int(k) % len(e.peers) }

// readers returns the off-diagonal blocks that read segment k in a sweep,
// as a span lo ≤ i < hi of positions that blockAt resolves: forward the
// supernode's own column blocks (positions in St.Blocks), backward the
// blocks whose rows lie in it (positions in rowBlk). The blocks that
// update segment k in a sweep are the other direction's readers.
func (e *solveRank) readers(k int32, back bool) (lo, hi int32) {
	if back {
		return e.rowPtr[k], e.rowPtr[k+1]
	}
	return e.f.St.BlockPtr[k] + 1, e.f.St.BlockPtr[k+1]
}

func (e *solveRank) blockAt(i int32, back bool) *symbolic.Block {
	if back {
		i = e.rowBlk[i]
	}
	return &e.f.St.Blocks[i]
}

// arm sets segment k's counter to the number of blocks that update it in
// the given sweep, and schedules its diagonal solve at once when there are
// none.
func (e *solveRank) arm(k int32, back bool) {
	lo, hi := e.readers(k, !back)
	e.count[k] = hi - lo
	if lo == hi {
		e.push(solveTask{back: back, id: k})
	}
}

func (e *solveRank) push(t solveTask) { e.rtq = append(e.rtq, t) }

// run is the rank's goroutine: it arms the forward sweep on the rank's own
// segments, which seeds the ones nothing updates, then polls for messages
// and executes ready tasks until all of the rank's tasks are done.
func (e *solveRank) run(r *upcxx.Rank) {
	e.r = r
	e.rtq = make([]solveTask, 0, e.total)
	for k := range e.count {
		if e.segOwner(int32(k)) == r.ID {
			e.arm(int32(k), false)
		}
	}
	rt := r.Runtime()
	for idle := 0; e.head < e.total && !rt.ShouldAbort(); {
		r.Progress()
		if e.head == len(e.rtq) {
			idle++
			idleWait(idle)
			continue
		}
		idle = 0
		t := e.rtq[e.head]
		e.head++
		if t.panel {
			e.runPanel(t.id, t.back)
		} else {
			e.runDiag(t.id, t.back)
		}
	}
}

// runDiag solves segment k against its diagonal block — every update of
// this sweep is already folded in — and fans it out, one message per rank,
// to the owners of the blocks that read it.
func (e *solveRank) runDiag(k int32, back bool) {
	st := e.f.St
	sn := &st.Snodes[k]
	nc := sn.NCols()
	trans := blas.NoTrans
	if back {
		trans = blas.Transpose
	}
	blas.Trsm(blas.Left, blas.Lower, trans, nc, 1, 1,
		e.f.Data[st.DiagBlock(k).ID], nc, e.y[sn.FirstCol:int(sn.FirstCol)+nc], nc)
	e.r.Charge(e.f.Opt.Machine.CPUTime(int64(nc) * int64(nc)))
	if !back {
		// Re-arm the counter for the backward sweep before y_k leaves this
		// rank: a backward update of k comes from a block B_{i,k} once x_i is
		// known, x_i needs y_i, and y_i needs the forward contribution of
		// that same block, which is computed from the y_k fanned out below.
		e.arm(k, true)
	}
	e.stamp++
	for i, hi := e.readers(k, back); i < hi; i++ {
		owner := symbolic.OwnerOfBlock(e.m2d, e.blockAt(i, back))
		if e.sent[owner] == e.stamp {
			continue
		}
		e.sent[owner] = e.stamp
		if owner == e.r.ID {
			e.deliver(k, back)
			continue
		}
		to := e.peers[owner]
		e.r.RPC(owner, func(*upcxx.Rank) { to.deliver(k, back) })
		chargeMsg(e.r, owner, int64(nc)*8)
	}
}

// deliver runs on a rank that owns readers of segment k once the segment
// is final for the sweep, and releases those panel tasks.
func (e *solveRank) deliver(k int32, back bool) {
	for i, hi := e.readers(k, back); i < hi; i++ {
		if bl := e.blockAt(i, back); symbolic.OwnerOfBlock(e.m2d, bl) == e.r.ID {
			e.push(solveTask{panel: true, back: back, id: bl.ID})
		}
	}
}

// runPanel computes block B_{i,k}'s contribution — forward c = L_{i,k}·y_k
// for segment i, backward c = L_{i,k}ᵀ·y_i for segment k — and sends it to
// the target segment's owner as an aggregate vector.
func (e *solveRank) runPanel(bid int32, back bool) {
	st := e.f.St
	bl := &st.Blocks[bid]
	sn := &st.Snodes[bl.Snode]
	nc, m := sn.NCols(), int(bl.NRows)
	data := e.f.Data[bid]
	var c []float64
	tgt := bl.RowSn
	if back {
		tgt = bl.Snode
		rows := sn.Rows[bl.RowOff : bl.RowOff+bl.NRows]
		c = make([]float64, nc)
		for col := range c {
			colv := data[col*m : col*m+m]
			var s float64
			for x, r := range rows {
				s += float64(colv[x] * e.y[r])
			}
			c[col] = s
		}
	} else {
		c = make([]float64, m)
		for col, t := range e.y[sn.FirstCol : int(sn.FirstCol)+nc] {
			if t == 0 {
				continue
			}
			colv := data[col*m : col*m+m]
			for x := range c {
				c[x] += float64(colv[x] * t)
			}
		}
	}
	e.r.Charge(e.f.Opt.Machine.CPUTime(2 * int64(m) * int64(nc)))
	owner := e.segOwner(tgt)
	if owner == e.r.ID {
		e.apply(bid, back, c)
		return
	}
	to := e.peers[owner]
	e.r.RPC(owner, func(*upcxx.Rank) { to.apply(bid, back, c) })
	chargeMsg(e.r, owner, int64(len(c))*8)
}

// apply runs on the target segment's owner: it subtracts block bid's
// contribution — forward at the block's rows, backward at its supernode's
// columns — and schedules the diagonal solve when it was the last one.
func (e *solveRank) apply(bid int32, back bool, c []float64) {
	st := e.f.St
	bl := &st.Blocks[bid]
	sn := &st.Snodes[bl.Snode]
	k := bl.RowSn
	if back {
		k = bl.Snode
		seg := e.y[sn.FirstCol:]
		for i, v := range c {
			seg[i] -= v
		}
	} else {
		for x, r := range sn.Rows[bl.RowOff : bl.RowOff+bl.NRows] {
			e.y[r] -= c[x]
		}
	}
	e.count[k]--
	if e.count[k] == 0 {
		e.push(solveTask{back: back, id: k})
	}
}

// chargeMsg accounts the modeled cost of an aggregate-vector message on
// the sending rank (host-resident payloads move on the host-host path).
func chargeMsg(r *upcxx.Rank, owner int, bytes int64) {
	rt := r.Runtime()
	r.Charge(rt.Network().Time(simnet.PathHostHost, bytes, rt.Node(r.ID) == rt.Node(owner)))
}
