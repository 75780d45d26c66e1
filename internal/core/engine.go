package core

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sympack/internal/blas"
	"sympack/internal/faults"
	"sympack/internal/gpu"
	"sympack/internal/machine"
	"sympack/internal/matrix"
	"sympack/internal/metrics"
	"sympack/internal/simnet"
	"sympack/internal/symbolic"
	"sympack/internal/upcxx"
)

// taskKind enumerates the paper's three task types (§3.2), plus the apply
// task the fan-in/fan-both formulations add — when an update is computed
// away from its target's owner, the delivered contribution is scattered
// into the target by a separate A task at the target's rank — and the
// subtree task, which runs every D, F and U of a small bottom subtree of
// the supernodal elimination tree in one plain loop (runSubtree).
type taskKind uint8

const (
	taskDiag    taskKind = iota // D_k: POTRF of a diagonal block
	taskFactor                  // F_{i,k}: TRSM of an off-diagonal block
	taskUpdate                  // U_{i,j,k}: SYRK/GEMM update
	taskApply                   // A_{i,j,k}: scatter a delivered contribution
	taskSubtree                 // S: the D/F/U tasks of a bottom subtree
)

// subtreeFlop bounds the modeled work (the FactorFlop formula) of a bottom
// subtree that runs as one task, and subtreeMin is the fewest supernodes
// such a subtree has. A lone leaf keeps its own D and F tasks: under the
// 2D-cyclic map at several ranks a leaf's blocks may all land on one rank,
// but a child and its parent share all their owners only when their
// indices agree modulo both grid dimensions, so next to nothing folds
// there. Both values come from the sweep in EXPERIMENTS "Subtree tasks".
// subtreeFlop is a variable only so that TestSubtreeFoldBits can set it to
// 0, which folds nothing.
var subtreeFlop int64 = 1e6

const subtreeMin = 2

// task is one RTQ entry: a block id for D/F, an update index for U/A, an
// index into engine.subtrees for S.
type task struct {
	kind taskKind
	id   int32
}

// fetched caches a pulled (or locally produced) source block, optionally
// with a device-resident mirror for the paper's "GPU blocks" optimization.
// acquire fills an entry and sets ready last, under e.mu; from then on the
// entry is immutable except for once, which guards the lazy device→host
// materialization in hostOf: several executor workers may consume the same
// source block concurrently. A device mirror only ever holds a diagonal, and
// devUses counts the local TRSMs that have yet to read it; the last one
// frees it (factorPanel).
type fetched struct {
	host    []float64
	dev     *gpu.Buffer
	devUses atomic.Int32
	once    sync.Once
	ready   bool
}

// awaited is the re-request state of one item another rank produces: the
// re-requests sent for it, and the quiescent rounds to skip before the next
// one. The backoff is exponential in rounds, capped at 64 (reRequestLost).
type awaited struct {
	item  int32
	count int32
	skip  int32
}

// laneScratch is the reusable working memory of one executor goroutine
// (lane), private to it, so the per-task path neither allocates nor locks
// for it. setup allocates all of it at the sizes the plan's layout fixed
// from the rank's tasks, as it allocates the receive slab:
//   - w, the update product: every update this rank computes into it (all
//     of them under fan-out), and the stacked product of every supernode
//     pair inside its subtree tasks (updatePair);
//   - rpos, the row positions relIndex writes: a contribution's in its
//     target block or supernode;
//   - arena, the trapezoids of the largest subtree task's supernodes, back
//     to back (layout.trapOff), and diag, the view of a trapezoid's
//     diagonal that runSubtree hands trsm;
//   - the consumer-rank set announce fans a finished item out to;
//   - next, when carried is set, the update or apply task the lane's last
//     completion readied (passTurn), which its next pull takes ahead of the
//     RTQ (take). Both are touched under e.mu.
type laneScratch struct {
	lane    int32 // index into engine.lanes, the trace lane
	w       []float64
	rpos    []int
	arena   []float64
	diag    fetched
	mark    []bool // by rank: already in ranks
	ranks   []int
	next    task
	carried bool
}

// consumer adds a rank to the consumer set of the item about to be announced.
func (ls *laneScratch) consumer(rank int) {
	if !ls.mark[rank] {
		ls.mark[rank] = true
		ls.ranks = append(ls.ranks, rank)
	}
}

// engine is the per-rank state of the fan-out factorization.
//
// Concurrency: a rank is `workers` goroutines pulling tasks from the RTQ.
// The rank's own goroutine (factorLoop, lane 0) also owns upcxx.Progress,
// and with it the signal handler and the re-request protocol; the other
// workers-1 are helpers (workerLoop) that only execute tasks. The mutex mu,
// the engine's only lock, guards all scheduler state: the RTQ, dependency
// counters, avail, wanted/remote, produced and doneTasks. Numeric kernels
// run outside mu, and so do the scatters into a target block: the updates
// into a block wait for each other in its canonical order (passTurn), so
// one of them at a time writes it.
type engine struct {
	r *upcxx.Rank
	// pl and lay are the shared, read-only plan and its layout for this
	// job's shape; st, tg and m2d are theirs, kept at hand.
	pl  *Plan
	lay *layout
	st  *symbolic.Structure
	tg  *symbolic.TaskGraph
	m2d symbolic.BlockMap
	a   *matrix.SparseSym // the matrix to factor, read through pl.asm
	opt *Options
	// form is the task formulation (cached from opt). The protocol below
	// speaks in *items*: item ids < nBlocks are blocks, and — under
	// contribution-delivering formulations — item nBlocks+ui is the
	// computed contribution of update ui. dir, avail, produced and wanted
	// are all indexed by item id.
	form    symbolic.Formulation
	nBlocks int32
	dir     []upcxx.GlobalPtr // shared global directory of item pointers

	// mu guards the scheduler state listed above; cond wakes idle helpers
	// when a task is pushed or the run ends.
	mu      sync.Mutex
	cond    *sync.Cond
	workers int  // goroutines executing tasks, the rank's own included
	stopped bool // set when factorLoop returns; helpers exit; guarded by e.mu
	// inflight counts tasks taken but not yet completed, a lane's next task
	// (take) among them, so factorLoop can tell "helpers busy" from "rank
	// starved" when deciding to suspect lost announcements. Guarded by e.mu.
	inflight int

	// owned is, per block id, the storage of the blocks this rank owns:
	// slices of one slab in the rank's shared segment (see setup).
	owned [][]float64

	// Dependency counters for tasks this rank owns, indexed by block id
	// and update index respectively, and under fan-in/fan-both those of
	// the apply tasks, by update index. Guarded by e.mu.
	depBlock  []int32
	depUpdate []int32 // guarded by e.mu
	depApply  []int32 // guarded by e.mu

	// avail caches source data this rank can consume, by item id (blocks,
	// then delivered contributions). Guarded by e.mu; an entry is frozen
	// once its ready flag is set, which is what licenses the two audited
	// unlocked reads in hostOf and trsm. The entry of an item another rank
	// produces starts out holding its slot of the receive slab (setup),
	// which acquire's get fills.
	avail []fetched

	// lanes is each executor goroutine's private working memory, indexed
	// by lane.
	lanes []laneScratch

	// subtrees lists this rank's subtree tasks, ascending (the layout's).
	// The blocks of a supernode one of them covers (layout.folded) have no
	// D/F task, and an update into one has no U or A task: the subtree
	// task runs them all (runSubtree).
	subtrees []symbolic.SubtreeRange

	// rtq is the ready task queue, a FIFO (paper §3.4: the next task is
	// whichever one is at the top of the queue): push appends, pop takes
	// rtq[head]. setup gives it room for all of the rank's tasks, each of
	// which is pushed exactly once. Guarded by e.mu.
	rtq  []task
	head int // guarded by e.mu

	totalTasks int // guarded by e.mu
	doneTasks  int // guarded by e.mu

	// Resilience state (lost-signal recovery, paper Fig. 4 hardened).
	// produced[item] is set by this rank once it has produced and announced
	// the item (a factored block, or a computed contribution under
	// fan-in/fan-both); writers are whichever workers ran the task and the
	// reader is the re-request handler on the rank goroutine, so both sides
	// go through mu. Guarded by e.mu.
	produced []bool
	// wanted marks the source items this rank's remaining tasks still
	// await (nWanted of them); marks clear on acquire. Guarded by e.mu.
	wanted  []bool
	nWanted int // guarded by e.mu
	// remote lists the wanted items other ranks produce, ascending by item
	// id, with their backoff state: the candidates for re-requests when the
	// rank idles. reRequestLost drops acquired entries as it walks.
	// Guarded by e.mu.
	remote []awaited

	// demoted is set when this rank's device dies mid-run: every later
	// offload decision answers CPU. Any worker may demote; all consult it.
	demoted atomic.Bool

	// met is the per-rank metrics bundle (internal/metrics registry).
	// Counter/gauge reads and writes are single atomics, so the stall
	// watchdog and the /metrics endpoint consume it while the rank runs;
	// it replaced the ad-hoc health-mirror and kernel-counter atomics.
	met *coreMetrics
}

func newEngine(r *upcxx.Rank, p *Plan, lay *layout, a *matrix.SparseSym, opt *Options, dir []upcxx.GlobalPtr) *engine {
	st, tg, m2d := p.st, p.tg, lay.m2d
	nItems := opt.Formulation.ItemCount(tg)
	e := &engine{
		r: r, pl: p, lay: lay, st: st, tg: tg, m2d: m2d, a: a, opt: opt, dir: dir,
		form:      opt.Formulation,
		nBlocks:   int32(len(st.Blocks)),
		owned:     make([][]float64, len(st.Blocks)),
		depBlock:  make([]int32, len(st.Blocks)),
		depUpdate: make([]int32, len(tg.Updates)),
		avail:     make([]fetched, nItems),
		produced:  make([]bool, nItems),
		wanted:    make([]bool, nItems),
		workers:   max(opt.Workers, 1),
	}
	e.lanes = make([]laneScratch, e.workers)
	for i := range e.lanes {
		e.lanes[i] = laneScratch{
			lane:  int32(i),
			mark:  make([]bool, m2d.P()),
			ranks: make([]int, 0, m2d.P()),
		}
	}
	if e.form.DeliversContributions() {
		e.depApply = make([]int32, len(tg.Updates))
	}
	e.cond = sync.NewCond(&e.mu)
	e.met = newCoreMetrics(metrics.NewRegistry())
	return e
}

// setup gives the rank what a factorization needs beside the plan, which
// fixed everything the pattern decides: it allocates the slab of owned
// blocks and publishes their pointers in dir, copies the initial dependency
// counters and awaited items, seeds the RTQ, allocates the lane buffers and
// the receive slab at the layout's sizes, and assembles the matrix's values
// through the plan's assembly map.
func (e *engine) setup() {
	rl := &e.lay.rank[e.r.ID]
	st := e.st
	// No helper has started yet, so this is single-threaded — but take
	// e.mu anyway: "scheduler state is touched under e.mu, always" is a
	// checkable invariant, "except during setup" is not.
	e.mu.Lock()
	e.subtrees = rl.subtrees
	// Owned blocks live back to back in one slab of the shared segment;
	// each block publishes a pointer to its own range. An update applied
	// here waits for the update before it in its target's canonical order,
	// unless it is the first (passTurn): a fan-out U task besides its
	// source blocks, an apply task besides the delivered contribution.
	deliver := e.form.DeliversContributions()
	slab, off := e.r.NewArray(rl.slabLen), 0
	for x, bid := range rl.blocks {
		b := &st.Blocks[bid]
		m, n := blockDims(st, b)
		g := slab.Slice(off, off+m*n)
		off += m * n
		e.owned[bid] = g.Data
		e.dir[bid] = g
		e.depBlock[bid] = rl.deps[x]
		if deliver && !e.lay.folded[b.Snode] {
			for i, ui := range e.tg.UpdatesByTarget[bid] {
				e.depApply[ui] = 1 + int32(min(i, 1))
			}
		}
	}
	// An update computed elsewhere, or inside a subtree, keeps a zero
	// counter, which is how acquire tells them apart. One computed here
	// waits for its one (SYRK) or two source blocks.
	for _, ui := range rl.updates {
		u := &e.tg.Updates[ui]
		e.depUpdate[ui] = 2
		if u.IsSyrk() {
			e.depUpdate[ui] = 1
		}
		if !deliver && e.tg.UpdatesByTarget[u.Target][0] != ui {
			e.depUpdate[ui]++
		}
	}
	for _, item := range rl.wanted {
		e.wanted[item] = true
	}
	e.nWanted = len(rl.wanted)
	e.met.wantedBlocks.Set(float64(e.nWanted))
	e.totalTasks = rl.tasks
	for i := range e.lanes {
		ls := &e.lanes[i]
		ls.w = make([]float64, rl.maxW)
		ls.rpos = make([]int, e.lay.maxPos)
		ls.arena = make([]float64, rl.arena)
	}
	// The RTQ has room for all of the rank's tasks, each pushed once.
	e.rtq = append(make([]task, 0, rl.tasks), rl.seed...)
	e.met.rtqDepth.Set(float64(len(e.rtq)))
	e.met.rtqPeak.SetMax(float64(len(e.rtq)))
	e.receiveSlab(rl)
	e.met.tasksTotal.Set(float64(e.totalTasks))
	e.mu.Unlock()
	e.assemble()
}

// receiveSlab fills e.remote with the layout's remote items, the wanted
// items other ranks produce, ascending by item id, and gives each one its
// slot of one slab as its avail entry's host buffer: every remote item this
// rank will fetch, with its size, is known before the first task runs, so
// the gets of the run write into memory allocated once (as owned blocks
// live in one slab). A failed get leaves its slot to the retry, and a
// duplicate announcement finds the entry ready, so a slot is written by one
// successful get at most. Callers hold e.mu.
func (e *engine) receiveSlab(rl *rankLayout) {
	e.remote = make([]awaited, len(rl.remote))
	slab := make([]float64, rl.recvLen)
	for i, item := range rl.remote {
		e.remote[i].item = item
		sz := itemLen(e.st, e.tg, item)
		e.avail[item].host = slab[:sz:sz]
		slab = slab[sz:]
	}
}

func taskFor(b *symbolic.Block) taskKind {
	if b.IsDiag() {
		return taskDiag
	}
	return taskFactor
}

// assemble puts the matrix entries into the owned blocks. A folded
// supernode's entries go into its trapezoid instead, when its subtree task
// runs, and a supernode this rank owns no block of is skipped: the ranks
// that own its blocks assemble it.
func (e *engine) assemble() {
	for k := range e.st.Snodes {
		if !e.lay.folded[k] && e.ownsBlockOf(int32(k)) {
			e.assembleSnode(int32(k), nil)
		}
	}
}

// ownsBlockOf reports whether this rank owns any block of supernode k.
func (e *engine) ownsBlockOf(k int32) bool {
	for _, b := range e.st.SnodeBlocks(k) {
		if e.owned[b.ID] != nil {
			return true
		}
	}
	return false
}

// assembleSnode puts the entries of supernode k's columns at their rows'
// positions in its row list, which the plan's assembly map holds: into
// trapezoid t when k is folded, otherwise (t nil) into the block holding
// each position, found walking k's blocks forward, unless another rank owns
// it.
func (e *engine) assembleSnode(k int32, t []float64) {
	asm, vals, sn := &e.pl.asm, e.a.Val, &e.st.Snodes[k]
	blks := e.st.SnodeBlocks(k)
	for j := sn.FirstCol; j <= sn.LastCol; j++ {
		c, b := int(j-sn.FirstCol), 0
		for x := asm.colPtr[j]; x < asm.colPtr[j+1]; x++ {
			i, v := int(asm.pos[x]), 0.0
			if asm.src != nil {
				v = vals[asm.src[x]]
			} else {
				v = vals[x]
			}
			if t != nil {
				t[c*sn.NRows()+i] = v
				continue
			}
			for i >= int(blks[b].RowOff+blks[b].NRows) {
				b++
			}
			if data := e.owned[blks[b].ID]; data != nil {
				data[c*int(blks[b].NRows)+i-int(blks[b].RowOff)] = v
			}
		}
	}
}

// relIndex writes into pos the position of each row of sub within super,
// both ascending, or -1 for a row super lacks, and reports whether every
// row was found. It is one forward merge of the two lists, at most
// len(sub)+len(super) compares. Replaying a factorization's calls, the
// merge was a quarter faster than a binary search of super's rest per row
// on Thermal2D and Laplace3D, whose lists are short, and a third slower on
// Flan3D's long ones, where the kernels dwarf either.
func relIndex(pos []int, sub, super []int32) bool {
	all, j := true, 0
	for x, r := range sub {
		for j < len(super) && super[j] < r {
			j++
		}
		if j == len(super) || super[j] != r {
			pos[x], all = -1, false
			continue
		}
		pos[x] = j
		j++
	}
	return all
}

// subCol subtracts w from col at the positions pos, col[pos[x]] -= w[x],
// skipping the negative positions of rows an incomplete target lacks.
func subCol(col []float64, pos []int, w []float64) {
	for x, p := range pos {
		if p >= 0 {
			col[p] -= w[x]
		}
	}
}

// placeRows is relIndex for a contribution's rows in its target: a missing
// row discards its part of the contribution in an incomplete (IC)
// structure, whose level rule dropped it, and is a broken structure in any
// other.
func (e *engine) placeRows(pos []int, sub, super []int32) {
	if !relIndex(pos, sub, super) && !e.st.Incomplete {
		panic("core: a contribution row is missing from its target")
	}
}

// push enqueues a task whose dependencies are satisfied and wakes one idle
// worker. Callers hold e.mu (including setup, which runs single-threaded
// but locks anyway to keep the guarded-field discipline uniform).
func (e *engine) push(kind taskKind, id int32) {
	e.rtq = append(e.rtq, task{kind: kind, id: id})
	depth := float64(len(e.rtq) - e.head)
	e.met.rtqDepth.Set(depth)
	e.met.rtqPeak.SetMax(depth)
	e.cond.Signal()
}

// take returns a lane's next task and puts it in flight: the update or apply
// task the lane's last completion readied (passTurn), which is in flight
// already, ahead of the RTQ, or else the RTQ's oldest. Callers hold e.mu.
func (e *engine) take(ls *laneScratch) (task, bool) {
	if ls.carried {
		ls.carried = false
		return ls.next, true
	}
	t, ok := e.pop()
	if ok {
		e.inflight++
	}
	return t, ok
}

// pop removes the oldest task from the RTQ, so tasks run in the order they
// became ready; callers hold e.mu.
func (e *engine) pop() (task, bool) {
	if e.head == len(e.rtq) {
		return task{}, false
	}
	t := e.rtq[e.head]
	e.head++
	e.met.rtqDepth.Set(float64(len(e.rtq) - e.head))
	return t, true
}

// factorLoop is the scheduling loop of paper Fig. 3, run by the rank's own
// goroutine (executor lane 0): handle incoming notifications (Progress runs
// the handler, which fetches each announced item), then run a ready task;
// repeat until all local tasks are done or the job aborts. When the rank is
// starved — no ready task AND no helper mid-task, with the signals handled —
// it marks itself idle, and if the whole job is then quiescent, nothing can
// move unless a signal was lost: it runs the re-request protocol, turning
// what would be a silent deadlock into recovery. Helpers (workerLoop,
// pool.go) share take, execute and complete.
func (e *engine) factorLoop() {
	rt := e.r.Runtime()
	ls := &e.lanes[0]
	idle := 0
	for {
		if rt.ShouldAbort() {
			return
		}
		if e.r.Progress() > 0 {
			idle = 0
		}
		e.mu.Lock()
		if e.doneTasks >= e.totalTasks {
			e.mu.Unlock()
			return
		}
		t, ok := e.take(ls)
		starved := !ok && e.inflight == 0
		e.mu.Unlock()
		if ok {
			idle = 0
			e.execute(t, ls)
			e.complete(t, ls)
			continue
		}
		if !starved {
			idle = 0
			runtime.Gosched()
			continue
		}
		idle++
		e.r.Idle()
		if rt.Quiescent() {
			e.mu.Lock()
			e.reRequestLost()
			e.mu.Unlock()
		}
		if idleWait(idle) {
			e.met.backoffWaits.Inc()
		}
	}
}

// idleWait is the one idle step of the package's polling loops (factorLoop,
// drainUntil, the distributed solve): after the idle-th consecutive poll that
// found nothing to do it yields the processor, and past 256 of them sleeps.
// The sleep lasts the timer's granularity, about 1 ms on Linux, not the
// 20 µs asked for, so a sleeping rank answers a signal that late; it stays
// because it frees the cores for the ranks with work (a yield alone made
// 4-rank Laplace3D 24³ on 2 cores ≈ 6 % slower; EXPERIMENTS "A starved
// rank sleeps"). It reports whether it slept.
func idleWait(idle int) bool {
	if idle > 256 {
		machine.Backoff(20 * time.Microsecond)
		return true
	}
	runtime.Gosched()
	return false
}

// drainUntil keeps handling incoming signals after this rank's own tasks
// are done, until finished — the count of ranks whose run has returned —
// reaches the job's rank count (or the job aborts). Without it a finished
// producer would never answer the re-requests other ranks aim at it.
func (e *engine) drainUntil(finished *atomic.Int64) {
	rt := e.r.Runtime()
	ranks := int64(rt.P())
	idle := 0
	for finished.Load() < ranks && !rt.ShouldAbort() {
		if e.r.Progress() > 0 {
			idle = 0
		}
		e.r.Idle()
		idle++
		idleWait(idle)
	}
}

// reRequestLost asks the producers of still-awaited remote items — source
// blocks, and contribution items under fan-in/fan-both — to re-announce
// anything they have already produced (msgReRequest). A producer that has
// not produced the item yet ignores the request (the real announcement will
// come); one whose announcement was dropped re-signals, and the consumer's
// handler takes it from there. Each call is one quiescent round: an item
// sits out 2^min(n-1,6) - 1 rounds after its n-th re-request, which bounds
// the traffic when recovery signals are lost too — the protocol only
// assumes the network delivers eventually. A failed fetch leaves its item
// wanted, for a later round. Callers hold e.mu (wanted/remote are
// scheduler state).
func (e *engine) reRequestLost() {
	// e.remote ascends by item id: the recovery signals race the normal
	// announcement path, so their order must be a function of the items,
	// not of when each was first awaited.
	kept := e.remote[:0]
	for _, w := range e.remote {
		if !e.wanted[w.item] {
			continue // acquired since the last sweep
		}
		if w.skip > 0 {
			w.skip--
		} else {
			w.skip = 1<<min(w.count, 6) - 1
			w.count++
			owner := e.lay.producer(e.st, e.tg, w.item)
			e.met.reRequests.Inc()
			if tr := e.opt.Trace; tr != nil {
				tr.End(int32(e.r.ID), "fault:re-request", tr.Begin(), fmt.Sprintf("item=%d owner=%d", w.item, owner))
			}
			e.r.Signal(owner, upcxx.Msg{Kind: msgReRequest, ID: w.item})
		}
		kept = append(kept, w)
	}
	e.remote = kept
}

// The kinds of upcxx.Msg. The factorization's handler (engine.handle)
// takes the first two, the distributed solve's (solveRank.handle) the
// other two; each run registers one handler.
const (
	msgAnnounce  uint8 = iota // item ID is produced: fetch it (Fig. 4 step 1)
	msgReRequest              // re-announce item ID to From if already produced
	msgSegment                // segment ID is final for sweep Back: run its readers
	msgContrib                // block ID's sweep-Back contribution is in its slot
)

// handle is the factorization's signal handler. It runs on this rank's
// goroutine inside Progress, so it reaches scheduler state only through
// e.mu: the rank's helpers share it. An announcement is acquired on
// delivery — paper Fig. 4 steps 2–6, the consumer's poll — the way announce
// acquires a local item; a duplicate or late one returns at acquire's ready
// check.
func (e *engine) handle(m upcxx.Msg) {
	switch m.Kind {
	case msgAnnounce:
		e.mu.Lock()
		e.acquire(m.ID)
		e.mu.Unlock()
	case msgReRequest:
		// If the item is done, re-announce it to the requester; duplicates
		// are absorbed by acquire. produced is written by this rank's
		// workers, so read it under mu.
		e.mu.Lock()
		done := e.produced[m.ID]
		e.mu.Unlock()
		if !done {
			return
		}
		e.r.Runtime().CountRedelivery()
		e.r.Signal(int(m.From), upcxx.Msg{Kind: msgAnnounce, ID: m.ID})
	default:
		panic(fmt.Sprintf("core: factorization signal of kind %d", m.Kind))
	}
}

// acquire makes a source item locally available (fetching it if remote,
// into its receive-slab slot) and propagates dependency decrements: a block
// readies the F/U tasks consuming it, a contribution item readies its apply
// task. It is idempotent — duplicated announcements return early — and
// fault-tolerant: a transfer whose retry budget ran out leaves the item in
// the wanted set, where the re-request protocol triggers a fresh
// announcement and a fresh fetch into the same slot. Callers hold e.mu:
// the signal handler (an item another rank produced) and announce (a local
// one). The mutex release at the subsequent take is the happens-before edge
// that lets workers read avail entries unlocked afterwards (acquire never
// rewrites a ready entry).
func (e *engine) acquire(item int32) {
	fc := &e.avail[item]
	if fc.ready {
		return
	}
	if item >= e.nBlocks {
		e.acquireContribution(item)
		return
	}
	bid := item
	b := &e.st.Blocks[bid]
	if data := e.owned[bid]; data != nil {
		fc.host = data
	} else {
		src := e.dir[bid]
		// The paper's "GPU blocks" optimization: a large factorized
		// diagonal block headed for GPU TRSMs is copied straight into
		// device memory (remote host → local device, zero-copy under
		// native memory kinds), skipping the host bounce.
		m, n := blockDims(e.st, b)
		if e.gpuEnabled() && b.IsDiag() && e.opt.Thresholds.ShouldOffload(machine.OpTrsm, m*n) {
			if buf, err := e.devAlloc(m * n); err == nil {
				if err := e.r.Copy(src, upcxx.GlobalPtr{Rank: int32(e.r.ID), Kind: simnet.Device, Data: buf.Data}); err == nil {
					fc.dev = buf
				} else {
					// Device-direct fetch failed in transit: release the
					// buffer and fall through to the host path.
					e.r.Device().Free(buf)
				}
			} else if !errors.Is(err, gpu.ErrDeviceFailed) {
				e.met.oomFallbacks.Inc()
			}
		}
		if fc.dev == nil {
			if err := e.r.Rget(src, fc.host); err != nil {
				// Retries exhausted: keep the block wanted and let the
				// re-request path re-signal it; a later acquire retries
				// the get with a fresh attempt budget.
				e.met.fetchFailures.Inc()
				return
			}
		}
	}
	e.acquired(item)
	if b.IsDiag() {
		// Local panel blocks of this supernode lose their diagonal
		// dependency; each one's TRSM is a use of the device mirror.
		for _, fb := range e.st.SnodeBlocks(b.Snode)[1:] {
			if e.owned[fb.ID] != nil {
				if fc.dev != nil {
					fc.devUses.Add(1)
				}
				e.decBlock(fb.ID)
			}
		}
	}
	// Updates computed here that consume this block lose one source
	// dependency; a zero counter is an update computed on another rank
	// (a local one still counts this very block).
	for _, ui := range e.tg.UpdatesBySource[bid] {
		if e.depUpdate[ui] != 0 && e.retire(&e.depUpdate[ui]) {
			e.push(taskUpdate, ui)
		}
	}
}

// acquired publishes a filled avail entry and retires the item from the
// wanted set; callers hold e.mu.
func (e *engine) acquired(item int32) {
	e.avail[item].ready = true
	if e.wanted[item] {
		e.wanted[item] = false
		e.nWanted--
		e.met.wantedBlocks.Set(float64(e.nWanted))
	}
}

// acquireContribution makes a delivered update contribution locally
// available and readies its apply task. Same contract as the block path of
// acquire: idempotent via avail, and a failed transfer leaves the item in
// the wanted set for the re-request protocol. The directory entry is
// always populated by the time any signal for the item can arrive — the
// producer publishes before announcing, and redeliveries check produced
// first. Callers hold e.mu.
func (e *engine) acquireContribution(item int32) {
	src := e.dir[item]
	if int(src.Rank) == e.r.ID {
		// Computed on this rank (the compute owner is also the target
		// owner): the published buffer is directly readable.
		e.avail[item].host = src.Data
	} else if err := e.r.Rget(src, e.avail[item].host); err != nil {
		e.met.fetchFailures.Inc()
		return
	}
	e.acquired(item)
	if ui := item - e.nBlocks; e.retire(&e.depApply[ui]) {
		e.push(taskApply, ui)
	}
}

// hostOf returns the host copy of an available item (source block or
// delivered contribution), materializing it from the device mirror when a
// block was fetched device-direct. Concurrent workers consuming the same
// item race to materialize; once serializes.
func (e *engine) hostOf(item int32) []float64 {
	//lint:ignore mutexguard an avail entry is frozen once ready (set under e.mu); the take that scheduled this task happens-after acquire published the entry (see acquire's doc)
	return e.host(&e.avail[item])
}

// host returns the host copy of a ready avail entry (hostOf), or of a
// lane's view of a trapezoid's diagonal (laneScratch.diag), which has no
// device mirror.
func (e *engine) host(fc *fetched) []float64 {
	if fc.dev != nil {
		fc.once.Do(func() {
			fc.host = make([]float64, fc.dev.Len())
			e.r.Charge(e.r.Device().DeviceToHost(fc.host, fc.dev))
		})
	}
	return fc.host
}

// retire takes one dependency off the counter c of a task, which is ready
// when retire reports c at zero; callers hold e.mu.
func (e *engine) retire(c *int32) bool {
	*c--
	e.met.depDecrements.Inc()
	return *c == 0
}

// decBlock retires one dependency of a block, readying its task at zero;
// callers hold e.mu.
func (e *engine) decBlock(bid int32) {
	if e.retire(&e.depBlock[bid]) {
		e.push(taskFor(&e.st.Blocks[bid]), bid)
	}
}

func (e *engine) gpuEnabled() bool { return e.r.Device() != nil && !e.demoted.Load() }

// demote permanently retires this rank's device after a hardware failure:
// every subsequent offload decision answers CPU. The factorization
// continues — slower, not dead.
func (e *engine) demote() {
	if e.demoted.Swap(true) {
		return
	}
	e.met.gpuDemotions.Inc()
	if tr := e.opt.Trace; tr != nil {
		tr.End(int32(e.r.ID), "fault:demote-gpu", tr.Begin(), fmt.Sprintf("dev=%d", e.r.Device().ID))
	}
}

// devAlloc wraps device allocation with the resilience policy: transient
// injected failures are retried a few times (they clear by construction),
// and a permanently failed device demotes the rank before surfacing
// ErrDeviceFailed so the caller's CPU fallback runs.
func (e *engine) devAlloc(n int) (*gpu.Buffer, error) {
	d := e.r.Device()
	for attempt := 0; ; attempt++ {
		buf, err := d.Alloc(n)
		if err == nil {
			return buf, nil
		}
		if errors.Is(err, gpu.ErrDeviceFailed) {
			e.demote()
			return nil, err
		}
		if errors.Is(err, faults.ErrTransient) && attempt < 3 {
			e.met.allocRetries.Inc()
			continue
		}
		return nil, err
	}
}

// traceKind and traceLabel name a task on the timeline. A subtree task has
// no event of its own: runSubtree records each of its kernels (traceFolded).
var (
	traceKind  = [...]string{taskDiag: "D", taskFactor: "F", taskUpdate: "U", taskApply: "A"}
	traceLabel = [...]string{taskDiag: "sn=%d", taskFactor: "blk=%d", taskUpdate: "upd=%d", taskApply: "upd=%d"}
)

// execute runs one ready task on lane ls, recording it on the lane when
// tracing is on — except a subtree task, which runSubtree records kernel by
// kernel. A fan-out update computes its product into the lane's buffer and
// scatters it into its target; an apply task scatters the delivered
// contribution. Runs outside e.mu; the caller accounts completion.
func (e *engine) execute(t task, ls *laneScratch) {
	tr := e.opt.Trace
	start := tr.Begin()
	switch t.kind {
	case taskDiag:
		e.runDiag(t.id, ls)
	case taskFactor:
		e.runFactor(t.id, ls)
	case taskUpdate:
		if e.form.DeliversContributions() {
			e.runUpdate(t.id, ls)
		} else {
			e.scatterSub(t.id, e.computeUpdate(t.id, ls.w), ls.rpos)
		}
	case taskApply:
		e.scatterSub(t.id, e.hostOf(e.nBlocks+t.id), ls.rpos)
	case taskSubtree:
		e.runSubtree(t.id, ls)
		return
	}
	arg := t.id
	if t.kind == taskDiag {
		arg = e.st.Blocks[t.id].Snode
	}
	e.traceTask(ls.lane, t.kind, start, arg)
}

// traceTask records the event of a task of the given kind that ran on lane
// from start until now, when tracing is on; arg is its label's number (the
// supernode of a D, the block of an F, the update of a U or A). A nil
// recorder would drop the event only after its label was formatted.
func (e *engine) traceTask(lane int32, kind taskKind, start time.Duration, arg int32) {
	if tr := e.opt.Trace; tr != nil {
		tr.EndLane(int32(e.r.ID), lane, traceKind[kind], start, fmt.Sprintf(traceLabel[kind], arg))
	}
}

// traceFolded records a kernel of a subtree task that ran on lane from
// start until now, when tracing is on: the POTRF (D) or the TRSM (F) of
// supernode src, labelled sn=src, or the update (U) of src into its
// ancestor tgt, labelled sn=src->tgt.
func (e *engine) traceFolded(lane int32, kind taskKind, start time.Duration, src, tgt int32) {
	tr := e.opt.Trace
	if tr == nil {
		return
	}
	label := fmt.Sprintf("sn=%d", src)
	if kind == taskUpdate {
		label = fmt.Sprintf("sn=%d->%d", src, tgt)
	}
	tr.EndLane(int32(e.r.ID), lane, traceKind[kind], start, label)
}

// announce notifies every rank holding tasks that consume an item — a
// factored block (paper Fig. 4 step 1) or a computed contribution under
// fan-in/fan-both; the caller collected them in ls (laneScratch.consumer),
// and the local rank is handled directly. It also records the item as
// produced so the re-request protocol can serve consumers whose
// notification the network lost. The producing worker's write to the item
// data happens-before every consumer read: locally via e.mu (acquire under
// the same lock the consuming take holds), remotely via the consumer's
// signal queue lock (qmu) followed by its handler's acquire under its mu.
func (e *engine) announce(bid int32, ls *laneScratch) {
	e.mu.Lock()
	e.produced[bid] = true
	if ls.mark[e.r.ID] {
		e.acquire(bid)
	}
	e.mu.Unlock()
	// Notify consumers in sorted rank order so the signal fan-out is a
	// deterministic function of the item, not of the order they were found.
	slices.Sort(ls.ranks)
	for _, rank := range ls.ranks {
		ls.mark[rank] = false
		if rank == e.r.ID {
			continue
		}
		// The consumer's handler does the get.
		e.r.Signal(rank, upcxx.Msg{Kind: msgAnnounce, ID: bid})
	}
	ls.ranks = ls.ranks[:0]
}

// runDiag executes D_k: POTRF of the diagonal block, then fan-out to the
// panel owners.
func (e *engine) runDiag(bid int32, ls *laneScratch) {
	k := e.st.Blocks[bid].Snode
	if e.factorDiag(k, e.owned[bid], e.st.Snodes[k].NCols()) {
		e.announceBlock(bid, ls)
	}
}

// runFactor executes F_{i,k}: TRSM of an off-diagonal panel block against
// the supernode's factorized diagonal, then fan-out to update owners.
func (e *engine) runFactor(bid int32, ls *laneScratch) {
	e.factorPanel(bid)
	e.announceBlock(bid, ls)
}

// factorDiag runs the kernel of D_k, POTRF of supernode k's diagonal,
// stored with leading dimension lda in a — its diagonal block, or the top
// of its trapezoid. It reports false, with the job failed, when the pivot
// breaks down.
func (e *engine) factorDiag(k int32, a []float64, lda int) bool {
	n := e.st.Snodes[k].NCols()
	if err := e.potrf(n, a, lda); err != nil {
		e.r.Runtime().Fail(fmt.Errorf("%w: supernode %d: %v", ErrNotPositiveDefinite, k, err))
		return false
	}
	return true
}

// factorPanel runs the kernel of F_{i,k}, TRSM of an off-diagonal panel
// block against the supernode's factorized diagonal.
func (e *engine) factorPanel(bid int32) {
	b := &e.st.Blocks[bid]
	data := e.owned[bid]
	m, n := blockDims(e.st, b)
	//lint:ignore mutexguard an avail entry is frozen once ready (set under e.mu); the take that scheduled this TRSM happens-after acquire published the diagonal and its use count
	fc := &e.avail[e.st.DiagBlock(b.Snode).ID]
	e.trsm(m, n, fc, n, data, m)
	// Only the supernode's TRSMs read its diagonal, so once the last local
	// one is done a device-direct mirror of it is dead memory.
	if fc.dev != nil && fc.devUses.Add(-1) == 0 {
		e.r.Device().Free(fc.dev)
	}
}

// announceBlock announces a factored block to the ranks holding its
// consumers: for a diagonal, the owners of the supernode's off-diagonal
// blocks; for a panel block, the owners of the formulation's compute blocks
// of every update using it — the target's owner under fan-out, a source
// operand's owner under fan-in/fan-both.
func (e *engine) announceBlock(bid int32, ls *laneScratch) {
	st := e.st
	b := &st.Blocks[bid]
	if b.IsDiag() {
		blks := st.SnodeBlocks(b.Snode)
		for i := 1; i < len(blks); i++ {
			ls.consumer(symbolic.OwnerOfBlock(e.m2d, &blks[i]))
		}
	} else {
		for _, ui := range e.tg.UpdatesBySource[bid] {
			u := &e.tg.Updates[ui]
			ls.consumer(symbolic.OwnerOfBlock(e.m2d, &st.Blocks[e.form.ComputeBlock(u)]))
		}
	}
	e.announce(bid, ls)
}

// runSubtree executes a subtree task supernode by supernode (DESIGN §9
// "Subtree tasks"). It gathers each supernode's blocks into its trapezoid
// in the lane's arena — column-major, leading dimension len(Rows) — and
// takes the supernodes in ascending order: one POTRF of the diagonal, one
// TRSM of all the panel rows below it, then one updatePair per ancestor
// inside the subtree, and the trapezoid goes back to its blocks. Every
// update into the subtree comes from inside it, and ascending sources land
// each target element's contributions in ascending update index, the
// canonical order of the update tasks (passTurn). The kernels accumulate
// each element over the inner dimension one column at a time, and a TRSM's
// rows are independent, so stacking rows moves no bit: the factor is that
// of the D/F/U tasks the subtree stands for. When the loop is done, each block
// in the columns of a supernode outside the subtree is announced as its F
// task would have been: the updates leaving the subtree take their
// formulation's ordinary path. The other blocks are not announced: every
// update that reads a block B_{p,k} targets the columns of p or of a
// supernode below p, so when p is inside the subtree the loop has run all
// of them. Aborts, cancellation among them, are checked at every
// supernode, so a subtree answers them within one supernode's kernels.
func (e *engine) runSubtree(id int32, ls *laneScratch) {
	st := e.st
	s := e.subtrees[id]
	rt, tr := e.r.Runtime(), e.opt.Trace
	for k := s.First; k <= s.Root; k++ {
		t := e.trapezoid(k, ls)
		clear(t)
		e.assembleSnode(k, t)
	}
	for k := s.First; k <= s.Root; k++ {
		if rt.ShouldAbort() {
			return
		}
		n, ld := st.Snodes[k].NCols(), st.Snodes[k].NRows()
		t := e.trapezoid(k, ls)
		start := tr.Begin()
		if !e.factorDiag(k, t, ld) {
			return
		}
		e.traceFolded(ls.lane, taskDiag, start, k, k)
		if m := ld - n; m > 0 {
			start := tr.Begin()
			ls.diag.host = t[:span(n, n, ld)]
			e.trsm(m, n, &ls.diag, ld, t[n:], ld)
			e.traceFolded(ls.lane, taskFactor, start, k, k)
		}
		blks := st.SnodeBlocks(k)
		for i := 1; i < len(blks) && blks[i].RowSn <= s.Root; i++ {
			start := tr.Begin()
			e.updatePair(k, &blks[i], ls)
			e.traceFolded(ls.lane, taskUpdate, start, k, blks[i].RowSn)
		}
		e.writeBack(k, t)
	}
	for bid := st.BlockPtr[s.First]; bid < st.BlockPtr[s.Root+1]; bid++ {
		if st.Blocks[bid].RowSn > s.Root {
			e.announceBlock(bid, ls)
		}
	}
}

// trapezoid returns folded supernode k's trapezoid in the lane's arena.
func (e *engine) trapezoid(k int32, ls *laneScratch) []float64 {
	sn := &e.st.Snodes[k]
	off := int(e.lay.trapOff[k])
	return ls.arena[off : off+sn.NRows()*sn.NCols()]
}

// writeBack copies folded supernode k's trapezoid t into its blocks, once
// the supernode is factored: block b takes rows RowOff… of every column.
func (e *engine) writeBack(k int32, t []float64) {
	n, ld := e.st.Snodes[k].NCols(), e.st.Snodes[k].NRows()
	for _, b := range e.st.SnodeBlocks(k) {
		data, m := e.owned[b.ID], int(b.NRows)
		for j := range n {
			copy(data[j*m:(j+1)*m], t[j*ld+int(b.RowOff):])
		}
	}
}

// updatePair subtracts folded supernode k's contribution to its ancestor
// p = b.RowSn, b being k's block in p's columns, from p's trapezoid. One
// GEMM computes W = L(b…,:)·L(b,:)ᵀ over the m rows of k from b's first row
// down: its top square is the SYRK update of b into p's diagonal block and
// the rows below it are the GEMM updates of k's later blocks against b,
// with each element's products, zero skips and start from 0 those of the
// separate kernels. The lower part of W is then subtracted through relative
// indices (CHOLMOD's relaind): the position of each of those rows in p's
// row list, from one merge of the two sorted lists. Fill closure puts all
// of them in p's list; IC structures, which drop fill, fold nothing.
func (e *engine) updatePair(k int32, b *symbolic.Block, ls *laneScratch) {
	sk, sp := &e.st.Snodes[k], &e.st.Snodes[b.RowSn]
	ld, ldp := sk.NRows(), sp.NRows()
	off, nb := int(b.RowOff), int(b.NRows)
	m := ld - off
	t := e.trapezoid(k, ls)[off:]
	w := ls.w[:m*nb]
	e.gemm(m, nb, sk.NCols(), t, ld, t, ld, w)
	rel := ls.rpos[:m]
	e.placeRows(rel, sk.Rows[off:], sp.Rows)
	tp := e.trapezoid(b.RowSn, ls)
	for y := range nb {
		// A row of b has its column's index as its relative index.
		subCol(tp[rel[y]*ldp:], rel[y:], w[y*m+y:y*m+m])
	}
}

// runUpdate executes U_{i,j,k} under the contribution-delivering
// formulations: compute the product into a fresh buffer — published, it
// stays alive for the rest of the run — and ship it to the target's owner.
func (e *engine) runUpdate(ui int32, ls *laneScratch) {
	u := &e.tg.Updates[ui]
	e.publishContribution(ui, e.computeUpdate(ui, make([]float64, contribLen(e.st, u))), ls)
}

// computeUpdate writes W = B_{i,j}·B_{k,j}ᵀ (SYRK when the blocks coincide,
// lower triangle only) into the first mB×nA elements of w and returns them.
// Every kernel overwrites the part of W that scatterSub reads.
func (e *engine) computeUpdate(ui int32, w []float64) []float64 {
	st := e.st
	u := &e.tg.Updates[ui]
	mB := int(st.Blocks[u.BlkB].NRows) // B_{i,j}
	nA := int(st.Blocks[u.BlkA].NRows) // B_{k,j}
	k := st.Snodes[u.SrcSn].NCols()    // inner dimension
	w = w[:mB*nA]
	hostA := e.hostOf(u.BlkA)
	if u.IsSyrk() {
		e.syrk(mB, k, hostA, w)
	} else {
		e.gemm(mB, nA, k, e.hostOf(u.BlkB), mB, hostA, nA, w)
	}
	return w
}

// publishContribution ships a computed contribution toward the target
// block's owner under fan-in/fan-both: the buffer is adopted into this
// rank's shared segment, published in the item directory, and announced
// exactly like a factored block — so a lost or duplicated contribution
// signal is recovered by the same re-request protocol. The target's apply
// task scatters it in the canonical order.
func (e *engine) publishContribution(ui int32, w []float64, ls *laneScratch) {
	item := e.nBlocks + ui
	g := e.r.NewArrayFrom(w)
	e.mu.Lock()
	e.dir[item] = g
	e.mu.Unlock()
	tgt := &e.st.Blocks[e.tg.Updates[ui].Target]
	ls.consumer(symbolic.OwnerOfBlock(e.m2d, tgt))
	e.announce(item, ls)
}

// passTurn passes the turn of update ui's target block on once ui is
// applied (complete): the next update in the block's canonical order —
// ascending update index, its UpdatesByTarget list — loses the dependency
// on its predecessor, or after the last update the block's D or F task
// loses its one on the updates. Floating-point subtraction is not
// associative, so it is this order, the same whichever worker, rank or
// formulation produced each contribution, that makes the factor
// bit-identical across all of them. A successor readied here, held back
// only by its turn, becomes the lane's next task (take). Callers hold e.mu.
func (e *engine) passTurn(ui int32, ls *laneScratch) {
	bid := e.tg.Updates[ui].Target
	turn := e.tg.UpdatesByTarget[bid]
	i, _ := slices.BinarySearch(turn, ui)
	if i+1 == len(turn) {
		e.decBlock(bid)
		return
	}
	next, dep, kind := turn[i+1], e.depUpdate, taskUpdate
	if e.form.DeliversContributions() {
		dep, kind = e.depApply, taskApply
	}
	if e.retire(&dep[next]) {
		ls.next, ls.carried = task{kind: kind, id: next}, true
		e.met.updatesParked.Inc()
	}
}

// scatterSub subtracts one update's contribution w from its target block:
// the B-block rows' positions in the target from relIndex, and one subCol
// per A-block row, whose column is that row relative to the target
// supernode's first column — from the diagonal down for a SYRK, whose w
// holds only its lower triangle. rpos is the calling lane's row-position
// buffer. It runs with no lock held: the update holds its target's turn
// (passTurn), which makes it the block's only writer.
func (e *engine) scatterSub(ui int32, w []float64, rpos []int) {
	st := e.st
	u := &e.tg.Updates[ui]
	ba, bb, tb := &st.Blocks[u.BlkA], &st.Blocks[u.BlkB], &st.Blocks[u.Target]
	snj, snk := &st.Snodes[u.SrcSn], &st.Snodes[tb.Snode]
	mB, ldT := int(bb.NRows), int(tb.NRows)
	rpos = rpos[:mB]
	e.placeRows(rpos, snj.Rows[bb.RowOff:bb.RowOff+bb.NRows], snk.Rows[tb.RowOff:tb.RowOff+tb.NRows])
	tdata := e.owned[u.Target]
	for y, c := range snj.Rows[ba.RowOff : ba.RowOff+ba.NRows] {
		from := 0
		if u.IsSyrk() {
			from = y
		}
		subCol(tdata[int(c-snk.FirstCol)*ldT:], rpos[from:], w[y*mB+from:y*mB+mB])
	}
}

// -------------------------------------------------------- GPU execution ----

// offload decides CPU vs GPU for an operation with an output of `elems`
// elements (§4.2's per-op size heuristic), counting admissions and
// threshold rejections per op.
func (e *engine) offload(op machine.Op, elems int) bool {
	if !e.gpuEnabled() {
		return false
	}
	if !e.opt.Thresholds.ShouldOffload(op, elems) {
		e.met.gpuRejections[op].Inc()
		return false
	}
	e.met.gpuOffloads[op].Inc()
	return true
}

// opStats reads the kernel counters out of the metrics bundle.
func (e *engine) opStats() OpStats {
	var s OpStats
	for i := range s.CPU {
		s.CPU[i] = int64(e.met.tasks[i][targetCPU].Value())
		s.GPU[i] = int64(e.met.tasks[i][targetGPU].Value())
	}
	return s
}

// fallbackCPU handles a failed device allocation according to policy,
// returning true when the caller should run the CPU path. Only a genuine
// capacity OOM under FallbackError aborts: a dead device demotes the rank
// (the job survives on CPU kernels), and transient injected failures that
// outlived their retries fall back silently — transient faults must never
// reach the hard-abort path.
func (e *engine) fallbackCPU(err error) bool {
	if errors.Is(err, gpu.ErrDeviceFailed) {
		return true // demoted by devAlloc; run this op on the CPU
	}
	if errors.Is(err, faults.ErrTransient) {
		e.met.oomFallbacks.Inc()
		return true
	}
	if e.opt.Fallback == gpu.FallbackError {
		e.r.Runtime().Fail(fmt.Errorf("core: device allocation failed and fallback=error: %w", err))
		return false
	}
	e.met.oomFallbacks.Inc()
	return true
}

// operand is one array of a device kernel call: host data that onDevice
// stages into a fresh buffer, or a buffer already resident on the device
// (the diagonal a device-direct fetch placed there), which is neither
// staged nor freed.
type operand struct {
	host     []float64
	resident *gpu.Buffer
	in, out  bool // host is copied to the device before the kernel / back after it
}

// onDevice runs one offloaded operation: a buffer per staged operand, in
// order, through devAlloc; then the inputs host-to-device, the kernel, the
// outputs device-to-host, each charged to the rank clock as it happens.
// It reports whether the operation is settled. A failed allocation frees
// what was staged and asks fallbackCPU: settled means the job is aborting,
// unsettled means the caller runs the host kernel. A kernel error (POTRF
// on a non-SPD block) settles the operation with that error.
func (e *engine) onDevice(op machine.Op, ops []operand, kernel func(d *gpu.Device, b []*gpu.Buffer) (float64, error)) (bool, error) {
	d := e.r.Device()
	bufs := make([]*gpu.Buffer, len(ops))
	free := func() {
		for i, buf := range bufs {
			if buf != nil && ops[i].resident == nil {
				d.Free(buf)
			}
		}
	}
	for i := range ops {
		if bufs[i] = ops[i].resident; bufs[i] != nil {
			continue
		}
		buf, err := e.devAlloc(len(ops[i].host))
		if err != nil {
			free()
			return !e.fallbackCPU(err), nil
		}
		bufs[i] = buf
	}
	defer free()
	for i := range ops {
		if ops[i].in {
			e.r.Charge(d.HostToDevice(bufs[i], ops[i].host))
		}
	}
	dt, err := kernel(d, bufs)
	e.r.Charge(dt)
	if err != nil {
		return true, err
	}
	for i := range ops {
		if ops[i].out {
			e.r.Charge(d.DeviceToHost(ops[i].host, bufs[i]))
		}
	}
	e.noteGPU(op, dt)
	return true, nil
}

// The four dispatch functions, one per kernel (paper §3.2, §4.2): if
// offload admits the operation and onDevice settles it, done; otherwise
// charge the CPU and call the host kernel. They are the only callers of the
// host kernels in this package. POTRF, TRSM and GEMM take leading
// dimensions, for a subtree task's trapezoids; a strided operand is staged
// on the device as its span.

// span is the element count of an m×n column-major matrix with leading
// dimension ld, from its first element to its last.
func span(m, n, ld int) int { return ld*(n-1) + m }

// potrf factors the n×n diagonal a (leading dimension lda) in place.
func (e *engine) potrf(n int, a []float64, lda int) error {
	a = a[:span(n, n, lda)]
	if e.offload(machine.OpPotrf, n*n) {
		done, err := e.onDevice(machine.OpPotrf, []operand{{host: a, in: true, out: true}},
			func(d *gpu.Device, b []*gpu.Buffer) (float64, error) { return d.Potrf(n, b[0], lda) })
		if done {
			return err
		}
	}
	e.chargeCPU(machine.OpPotrf, machine.KernelFlops(machine.OpPotrf, 0, n, 0))
	return blas.Potrf(blas.Lower, n, a, lda)
}

// trsm solves the m×n panel b (leading dimension ldb) in place against the
// factored n×n diagonal in l (leading dimension ldl): a diagonal block's
// avail entry, whose device copy the device path reuses when the fetch
// already placed it there (GPU-blocks optimization), or a lane's view of a
// trapezoid's diagonal.
func (e *engine) trsm(m, n int, l *fetched, ldl int, b []float64, ldb int) {
	b = b[:span(m, n, ldb)]
	if e.offload(machine.OpTrsm, m*n) {
		diag := operand{resident: l.dev}
		if diag.resident == nil {
			diag = operand{host: l.host, in: true}
		}
		done, _ := e.onDevice(machine.OpTrsm, []operand{diag, {host: b, in: true, out: true}},
			func(d *gpu.Device, bufs []*gpu.Buffer) (float64, error) {
				return d.Trsm(m, n, bufs[0], ldl, bufs[1], ldb), nil
			})
		if done {
			return
		}
	}
	e.chargeCPU(machine.OpTrsm, machine.KernelFlops(machine.OpTrsm, m, n, 0))
	blas.Trsm(blas.Right, blas.Lower, blas.Transpose, m, n, 1, e.host(l), ldl, b, ldb)
}

// syrk computes the lower triangle of scratch = A·Aᵀ, A being n×k.
func (e *engine) syrk(n, k int, a, scratch []float64) {
	if e.offload(machine.OpSyrk, n*n) {
		done, _ := e.onDevice(machine.OpSyrk, []operand{{host: a, in: true}, {host: scratch, out: true}},
			func(d *gpu.Device, b []*gpu.Buffer) (float64, error) { return d.Syrk(n, k, b[0], n, b[1], n), nil })
		if done {
			return
		}
	}
	e.chargeCPU(machine.OpSyrk, machine.KernelFlops(machine.OpSyrk, n, k, 0))
	blas.Syrk(blas.Lower, blas.NoTrans, n, k, 1, a, n, 0, scratch, n)
}

// gemm computes the m×n product scratch = B·Aᵀ (leading dimension m), B
// being m×k with leading dimension ldb and A n×k with leading dimension
// lda.
func (e *engine) gemm(m, n, k int, b []float64, ldb int, a []float64, lda int, scratch []float64) {
	b, a, scratch = b[:span(m, k, ldb)], a[:span(n, k, lda)], scratch[:m*n]
	if e.offload(machine.OpGemm, m*n) {
		done, _ := e.onDevice(machine.OpGemm, []operand{{host: b, in: true}, {host: a, in: true}, {host: scratch, out: true}},
			func(d *gpu.Device, bufs []*gpu.Buffer) (float64, error) {
				return d.Gemm(m, n, k, bufs[0], ldb, bufs[1], lda, bufs[2], m), nil
			})
		if done {
			return
		}
	}
	e.chargeCPU(machine.OpGemm, machine.KernelFlops(machine.OpGemm, m, n, k))
	blas.Gemm(blas.NoTrans, blas.Transpose, m, n, k, 1, b, ldb, a, lda, 0, scratch, m)
}

// ErrInternal flags invariant violations.
var ErrInternal = errors.New("core: internal error")
