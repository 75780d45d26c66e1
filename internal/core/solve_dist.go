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
// contributions fan in (§2.3's second message kind) to the segment owners
// of the target supernodes; the backward pass is the same sweep with the
// roles of a block's row and column supernode swapped. Communication uses
// the same typed signals as the factorization; a contribution travels in
// its block's slot of a slab both ends share, the signal only names it.
//
// The state the pattern determines is built by the first call and reused
// by the later ones (see distSolve). Unlike Solve it writes to the factor
// (that state, SolveStats, Metrics), so calls on one Factor must not
// overlap.
func (f *Factor) SolveDistributed(b []float64) ([]float64, error) {
	st := f.St
	n := st.N
	if len(b) != n {
		return nil, fmt.Errorf("core: rhs length %d, want %d", len(b), n)
	}
	opt := f.Opt
	// A contribution signal is consumed once, not idempotent the way the
	// factorization's announcements are, so only generic faults (delays,
	// failing transfers, rank stalls) are injected; drop/dup target the
	// factor-announcement protocol and would wedge or corrupt a solve.
	rt, err := newRuntime(opt, newInjector(opt).Restrict(
		faults.DelaySignal, faults.TransientTransfer, faults.RankStall))
	if err != nil {
		return nil, err
	}
	d := f.distSolve()
	// The one vector of the solve, in factor ordering: b on entry, y after
	// the forward sweep, x after the backward one. Segment k is written only
	// by segOwner(k); another rank reads it only after the owner's signal
	// told it the segment is final for the sweep.
	for k := range d.y {
		d.y[k] = b[st.Perm[k]]
	}
	for _, e := range d.solvers {
		e.reset()
	}
	start := machine.WallNow()
	rt.Handle(d.handler)
	if err := rt.Run(func(r *upcxx.Rank) { d.solvers[r.ID].run(r) }); err != nil {
		return nil, err
	}
	f.SolveStats.Wall = machine.WallSince(start)
	f.SolveStats.ModelSeconds = 0
	for _, e := range d.solvers {
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
	for k, v := range d.y {
		x[st.Perm[k]] = v
	}
	return x, nil
}

// distSolve is what a distributed solve needs beyond the vector it solves:
// all of it follows from the factor's structure and its rank layout, so
// the first SolveDistributed on a Factor builds it and the later ones
// reuse it, for the Ranks and Mapping it was built with.
type distSolve struct {
	nranks  int
	mapping MappingKind

	y []float64 // the permuted vector, shared by all ranks
	// contrib holds, per off-diagonal block, its forward contribution
	// (NRows elements) followed by its backward one (its supernode's
	// NCols), from offset off[bid]: the sender writes the slot, the signal
	// names it, the target segment's owner reads it.
	contrib []float64
	off     []int

	solvers []*solveRank
	handler upcxx.Handler // dispatches a signal to its rank's solveRank
}

// distSolve returns the factor's distributed-solve state, building it on
// first use or when the rank layout changed since.
func (f *Factor) distSolve() *distSolve {
	if d := f.dist; d != nil && d.nranks == f.Opt.Ranks && d.mapping == f.Opt.Mapping {
		return d
	}
	st := f.St
	p := f.Opt.Ranks
	m2d := symbolic.NewBlockMap(f.Opt.Mapping, p, st)
	d := &distSolve{nranks: p, mapping: f.Opt.Mapping, y: make([]float64, st.N), off: make([]int, len(st.Blocks))}

	// Off-diagonal block ids grouped by row supernode (the backward sweep's
	// fan-out), as a CSR filled in block-id order. Counting at i+2 leaves
	// rowPtr[i+1] at the start of row i after the prefix sum, so the fill's
	// cursor increments turn it into the end of row i — the start of i+1.
	nsn := st.NumSupernodes()
	rowPtr := make([]int32, nsn+2)
	size := 0
	for bi := range st.Blocks {
		if bl := &st.Blocks[bi]; !bl.IsDiag() {
			rowPtr[bl.RowSn+2]++
			d.off[bi] = size
			size += int(bl.NRows) + st.Snodes[bl.Snode].NCols()
		}
	}
	d.contrib = make([]float64, size)
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

	// Every rank's share is set up before the ranks run, so a handler may
	// reach any peer from the first message on. A rank's tasks are two
	// sweeps × (the segments + the panel blocks it owns).
	d.solvers = make([]*solveRank, p)
	for q := range d.solvers {
		d.solvers[q] = &solveRank{
			f: f, d: d, m2d: m2d, rowPtr: rowPtr, rowBlk: rowBlk,
			count: make([]int32, nsn), sent: make([]int32, p),
		}
	}
	for bi := range st.Blocks {
		bl := &st.Blocks[bi]
		owner := symbolic.OwnerOfBlock(m2d, bl)
		if bl.IsDiag() {
			owner = d.solvers[0].segOwner(bl.Snode)
		}
		d.solvers[owner].total += 2
	}
	for _, e := range d.solvers {
		e.rtq = make([]solveTask, 0, e.total)
	}
	d.handler = func(r *upcxx.Rank, m upcxx.Msg) { d.solvers[r.ID].handle(m) }
	f.dist = d
	return d
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
	r   *upcxx.Rank
	f   *Factor
	d   *distSolve
	m2d symbolic.BlockMap

	rowPtr, rowBlk []int32 // off-diagonal block ids by row supernode (CSR)

	// count[k] is the number of updates segment k still waits for in the
	// current sweep; only segOwner(k)'s entry is used.
	count []int32
	// sent[p] == stamp marks rank p as already told about the segment being
	// fanned out (one message per rank, however many of its blocks read it).
	sent  []int32
	stamp int32

	// rtq is a FIFO with room for all of the rank's tasks, each of which is
	// pushed exactly once per solve; head counts the tasks done.
	rtq         []solveTask
	head, total int
}

// reset readies the rank for another solve.
func (e *solveRank) reset() {
	e.rtq, e.head, e.stamp = e.rtq[:0], 0, 0
	clear(e.sent)
}

// slot returns block bid's contribution slot for a sweep.
func (e *solveRank) slot(bid int32, back bool) []float64 {
	st := e.f.St
	bl := &st.Blocks[bid]
	lo, n := e.d.off[bid], int(bl.NRows)
	if back {
		lo, n = lo+n, st.Snodes[bl.Snode].NCols()
	}
	return e.d.contrib[lo : lo+n : lo+n]
}

// segOwner returns the rank owning supernode k's segment of the vector.
// Segments are distributed 1D-cyclically: the 2D block map would place
// every diagonal block on the process grid's diagonal (few distinct ranks),
// serializing the solve's diagonal chain.
func (e *solveRank) segOwner(k int32) int { return int(k) % e.d.nranks }

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

// handle is the solve's signal handler, run on the target rank inside
// Progress: a segment final for a sweep releases the rank's readers of it
// (msgSegment), a contribution in its slot is folded into its segment
// (msgContrib).
func (e *solveRank) handle(m upcxx.Msg) {
	switch m.Kind {
	case msgSegment:
		e.deliver(m.ID, m.Back)
	case msgContrib:
		e.apply(m.ID, m.Back)
	default:
		panic(fmt.Sprintf("core: solve signal of kind %d", m.Kind))
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
		e.f.Data[st.DiagBlock(k).ID], nc, e.d.y[sn.FirstCol:int(sn.FirstCol)+nc], nc)
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
		e.r.Signal(owner, upcxx.Msg{Kind: msgSegment, Back: back, ID: k})
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
// for segment i, backward c = L_{i,k}ᵀ·y_i for segment k — into the block's
// slot for the sweep and signals the target segment's owner. The slot is
// written here and read by apply, on this rank or, after the signal has
// passed through the target's queue lock, on the target.
func (e *solveRank) runPanel(bid int32, back bool) {
	st := e.f.St
	bl := &st.Blocks[bid]
	sn := &st.Snodes[bl.Snode]
	nc, m := sn.NCols(), int(bl.NRows)
	data := e.f.Data[bid]
	y := e.d.y
	c := e.slot(bid, back)
	tgt := bl.RowSn
	if back {
		tgt = bl.Snode
		rows := sn.Rows[bl.RowOff : bl.RowOff+bl.NRows]
		for col := range c {
			colv := data[col*m : col*m+m]
			var s float64
			for x, r := range rows {
				s += float64(colv[x] * y[r])
			}
			c[col] = s
		}
	} else {
		clear(c)
		for col, t := range y[sn.FirstCol : int(sn.FirstCol)+nc] {
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
		e.apply(bid, back)
		return
	}
	e.r.Signal(owner, upcxx.Msg{Kind: msgContrib, Back: back, ID: bid})
	chargeMsg(e.r, owner, int64(len(c))*8)
}

// apply runs on the target segment's owner: it subtracts block bid's
// contribution for the sweep, read from its slot — forward at the block's
// rows, backward at its supernode's columns — and schedules the diagonal
// solve when it was the last one.
func (e *solveRank) apply(bid int32, back bool) {
	st := e.f.St
	bl := &st.Blocks[bid]
	sn := &st.Snodes[bl.Snode]
	y := e.d.y
	c := e.slot(bid, back)
	k := bl.RowSn
	if back {
		k = bl.Snode
		seg := y[sn.FirstCol:]
		for i, v := range c {
			seg[i] -= v
		}
	} else {
		for x, r := range sn.Rows[bl.RowOff : bl.RowOff+bl.NRows] {
			y[r] -= c[x]
		}
	}
	e.count[k]--
	if e.count[k] == 0 {
		e.push(solveTask{back: back, id: k})
	}
}

// chargeMsg accounts the modeled cost of a contribution or segment payload
// on the sending rank (host-resident payloads move on the host-host path).
func chargeMsg(r *upcxx.Rank, owner int, bytes int64) {
	rt := r.Runtime()
	r.Charge(rt.Network().Time(simnet.PathHostHost, bytes, rt.Node(r.ID) == rt.Node(owner)))
}
