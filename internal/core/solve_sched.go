package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"sympack/internal/symbolic"
)

// rowCSR groups the off-diagonal block ids by row supernode, in block-id
// order: supernode i's are blk[ptr[i]:ptr[i+1]]. The shared-memory solve's
// pull reads it, and so does the distributed solve's backward fan-out.
type rowCSR struct{ ptr, blk []int32 }

// newRowCSR builds st's rowCSR.
func newRowCSR(st *symbolic.Structure) rowCSR {
	nsn := int32(st.NumSupernodes())
	// Count at i+2 so that, after the prefix sum, ptr[i+1] is the start of
	// row i; the fill's cursor increments turn it into the end of row i,
	// the start of i+1.
	ptr := make([]int32, nsn+2)
	for bi := range st.Blocks {
		if bl := &st.Blocks[bi]; !bl.IsDiag() {
			ptr[bl.RowSn+2]++
		}
	}
	for i := 2; i < len(ptr); i++ {
		ptr[i] += ptr[i-1]
	}
	blk := make([]int32, ptr[nsn+1])
	for bi := range st.Blocks {
		if bl := &st.Blocks[bi]; !bl.IsDiag() {
			blk[ptr[bl.RowSn+1]] = bl.ID
			ptr[bl.RowSn+1]++
		}
	}
	return rowCSR{ptr: ptr[:nsn+1], blk: blk}
}

// solveSched is the shared-memory solve's task graph. It follows from the
// structure alone, so it is built once per pattern, by the first solve
// that needs it (solveOnce), and read, never written, by every solve after.
//
// A unit is a range of supernodes one lane solves in a sweep: a bottom
// subtree of the cut the factorization folds at one rank (subtreeTasks), or
// one supernode above it. Forward, a subtree pushes its blocks into its own
// rows (forward) and a lone supernode pulls the blocks that lie in its rows
// (pull); backward, every unit runs backward over its range.
type solveSched struct {
	rows rowCSR // the blocks a lone supernode pulls
	// units tile the supernodes in ascending order. One unit is the whole
	// forest: the solve then runs on the calling goroutine alone.
	units []symbolic.SubtreeRange
	// Forward, unit u must wait for pred[predPtr[u]:predPtr[u+1]] and
	// releases succ[succPtr[u]:succPtr[u+1]]; backward the roles swap.
	// Neither list holds a unit twice.
	succPtr, succ, predPtr, pred []int32
	workRows                     int
}

// solveOnce builds, on first use, what the solves of a pattern share: the
// rowCSR, which the distributed solve needs too, and the solveSched. The
// factors of one Plan share one; a factor LoadFactor returns has its own.
type solveOnce struct {
	rowsOnce, schedOnce sync.Once
	rows                rowCSR
	sched               *solveSched
}

func (o *solveOnce) byRow(st *symbolic.Structure) rowCSR {
	o.rowsOnce.Do(func() { o.rows = newRowCSR(st) })
	return o.rows
}

func (o *solveOnce) get(st *symbolic.Structure) *solveSched {
	o.schedOnce.Do(func() { o.sched = newSolveSched(st, o.byRow(st)) })
	return o.sched
}

// newSolveSched builds st's solve schedule around its rowCSR. The units are
// the bottom subtrees the factorization folds at one rank (a root of the
// tree never folds) and every supernode above them. A structure that
// yields no subtree, an Incomplete one among them, is one unit.
//
// st must satisfy symbolic.Structure.ValidateLayout (Analyze's structures
// do, and LoadFactor checks a loaded one): then every off-diagonal block
// lies in a later supernode's rows, so a unit writes only its own rows and
// every edge points to a later unit.
func newSolveSched(st *symbolic.Structure, rows rowCSR) *solveSched {
	nsn := int32(st.NumSupernodes())
	s := &solveSched{rows: rows, workRows: workRows(st),
		units: []symbolic.SubtreeRange{{First: 0, Root: nsn - 1}}, succPtr: []int32{0, 0}, predPtr: []int32{0, 0}}
	subtrees := st.BottomSubtrees(subtreeFlop, subtreeMin, func(k int32) bool { return st.SnParent[k] != -1 })
	if len(subtrees) == 0 {
		return s
	}
	// Units in ascending order: each subtree, after the lone supernodes
	// below its first.
	unitOf := make([]int32, nsn)
	units := make([]symbolic.SubtreeRange, 0, nsn)
	next := int32(0)
	for _, r := range append(subtrees, symbolic.SubtreeRange{First: nsn, Root: nsn}) {
		for ; next < r.First; next++ {
			unitOf[next] = int32(len(units))
			units = append(units, symbolic.SubtreeRange{First: next, Root: next})
		}
		if r.First == nsn {
			break
		}
		for k := r.First; k <= r.Root; k++ {
			unitOf[k] = int32(len(units))
		}
		units = append(units, r)
		next = r.Root + 1
	}

	// Forward edges, deduplicated with a stamp per target unit. A block
	// from outside a subtree into its rows would need the subtree to pull:
	// the cut is closed under updates, so that happens only where a block's
	// row supernode is no ancestor of its own, which a loaded factor's
	// rebuilt tree does not rule out. Such a structure stays one unit.
	succPtr := make([]int32, len(units)+1)
	var succ []int32
	stamp := make([]int32, len(units))
	for u, r := range units {
		for k := r.First; k <= r.Root; k++ {
			for _, bl := range st.SnodeBlocks(k)[1:] {
				v := unitOf[bl.RowSn]
				if v == int32(u) {
					continue
				}
				if units[v].First != units[v].Root {
					return s
				}
				if stamp[v] != int32(u)+1 {
					stamp[v] = int32(u) + 1
					succ = append(succ, v)
				}
			}
		}
		succPtr[u+1] = int32(len(succ))
	}
	// The reverse CSR, filled in ascending source order.
	predPtr := make([]int32, len(units)+2)
	for _, v := range succ {
		predPtr[v+2]++
	}
	for i := 2; i < len(predPtr); i++ {
		predPtr[i] += predPtr[i-1]
	}
	pred := make([]int32, len(succ))
	for u := range units {
		for _, v := range succ[succPtr[u]:succPtr[u+1]] {
			pred[predPtr[v+1]] = int32(u)
			predPtr[v+1]++
		}
	}
	s.units, s.succPtr, s.succ, s.predPtr, s.pred = units, succPtr, succ, predPtr[:len(units)+1], pred
	return s
}

// solveLanes counts the goroutines running a shared-memory solve in the
// process: the caller of every solve on the lanes and the helpers it took.
var solveLanes atomic.Int32

// takeLanes counts the caller as a lane and takes up to want−1 helpers
// while the lanes stay within GOMAXPROCS: a lane past the Ps only
// time-slices with the others, which costs more than it gains (EXPERIMENTS
// "The solve on the lanes"), so concurrent solves that fill the Ps run
// alone. It returns the lanes the caller must give back with giveLanes.
func takeLanes(want int) int {
	busy := solveLanes.Add(1)
	procs := int32(runtime.GOMAXPROCS(0))
	got := 1
	for got < want && busy < procs {
		if solveLanes.CompareAndSwap(busy, busy+1) {
			got++
			busy++
		} else {
			busy = solveLanes.Load()
		}
	}
	return got
}

func giveLanes(n int) { solveLanes.Add(-int32(n)) }

// laneSolve is one call's run of a solveSched on lanes goroutines: the
// caller and lanes−1 helpers that live for one sweep. At one right-hand
// side lane l gathers into its own slice of w; at more w is empty, since
// the sweeps run in place on the panel. A unit runs once its count
// reaches zero: forward once its predecessors are done, backward once its
// successors are. The lane that readies a unit runs the first one it
// readies next and queues the rest; the lane that completes the last unit
// stops them all.
type laneSolve struct {
	f     *Factor
	s     *solveSched
	y     []float64
	nrhs  int
	w     []float64
	lanes int
	back  bool

	count []atomic.Int32
	left  atomic.Int32
	// ready holds every unit readied and not yet taken, and the stop marks
	// (-1): at most all units and one mark per lane, so a send never blocks.
	ready chan int32

	helpers  sync.WaitGroup
	failOnce sync.Once
	failed   atomic.Bool
	err      error
}

// newLaneSolve readies a run of s on lanes lanes over the panel y and the
// workspaces w, one slice of w per lane.
func newLaneSolve(f *Factor, s *solveSched, y []float64, nrhs int, w []float64, lanes int) *laneSolve {
	return &laneSolve{f: f, s: s, y: y, nrhs: nrhs, w: w, lanes: lanes,
		count: make([]atomic.Int32, len(s.units)), ready: make(chan int32, len(s.units)+lanes)}
}

// sweep runs one sweep on the lanes and returns once every lane has
// stopped: with nil when every unit ran, with the error of a lane that
// panicked otherwise.
func (ls *laneSolve) sweep(back bool) error {
	s := ls.s
	ls.back = back
	wait := s.predPtr
	if back {
		wait = s.succPtr
	}
	ls.left.Store(int32(len(s.units)))
	for u := range ls.count {
		ls.count[u].Store(wait[u+1] - wait[u])
		if wait[u+1] == wait[u] {
			ls.ready <- int32(u)
		}
	}
	for l := 1; l < ls.lanes; l++ {
		ls.helpers.Add(1)
		go func() {
			defer ls.helpers.Done()
			ls.lane(l)
		}()
	}
	ls.lane(0)
	ls.helpers.Wait()
	return ls.err
}

// lane takes units until it is told to stop. A panic in a unit fails the
// call, as a panicking worker fails a factorization, rather than the
// process; the other lanes skip what is left and stop.
func (ls *laneSolve) lane(l int) {
	defer func() {
		if p := recover(); p != nil {
			ls.fail(fmt.Errorf("%w: solve lane %d panic: %v", ErrInternal, l, p))
		}
	}()
	size := len(ls.w) / ls.lanes
	w := ls.w[l*size : (l+1)*size]
	for u := int32(-1); ; {
		if u < 0 {
			if u = <-ls.ready; u < 0 {
				return
			}
		}
		if ls.failed.Load() {
			u = -1
			continue
		}
		ls.run(u, w)
		u = ls.complete(u)
	}
}

// run solves unit u's part of the current sweep.
func (ls *laneSolve) run(u int32, w []float64) {
	r := ls.s.units[u]
	switch {
	case ls.back:
		ls.f.backward(ls.y, ls.nrhs, w, r.First, r.Root)
	case r.First == r.Root:
		ls.f.pull(ls.y, ls.nrhs, w, ls.s, r.Root)
	default:
		ls.f.forward(ls.y, ls.nrhs, w, r.First, r.Root)
	}
}

// complete counts unit u done: it releases the units waiting for it and
// returns the first one that became ready, or -1.
func (ls *laneSolve) complete(u int32) int32 {
	ptr, adj := ls.s.succPtr, ls.s.succ
	if ls.back {
		ptr, adj = ls.s.predPtr, ls.s.pred
	}
	next := int32(-1)
	for _, v := range adj[ptr[u]:ptr[u+1]] {
		if ls.count[v].Add(-1) != 0 {
			continue
		}
		if next < 0 {
			next = v
		} else {
			ls.ready <- v
		}
	}
	if ls.left.Add(-1) == 0 {
		for range ls.lanes {
			ls.ready <- -1
		}
	}
	return next
}

// fail records the call's first error and stops the other lanes.
func (ls *laneSolve) fail(err error) {
	ls.failOnce.Do(func() {
		ls.err = err
		ls.failed.Store(true)
		for range ls.lanes - 1 {
			ls.ready <- -1
		}
	})
}
