package core

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
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
// task the fan-in/fan-both formulations add: when an update is computed
// away from its target's owner, the delivered contribution is scattered
// into the target by a separate A task at the target's rank.
type taskKind uint8

const (
	taskDiag   taskKind = iota // D_k: POTRF of a diagonal block
	taskFactor                 // F_{i,k}: TRSM of an off-diagonal block
	taskUpdate                 // U_{i,j,k}: SYRK/GEMM update
	taskApply                  // A_{i,j,k}: scatter a delivered contribution
)

// task is one RTQ entry: a block id for D/F, an update index for U/A. The
// seq and depth fields are the scheduling keys: seq is the push order
// (FIFO/LIFO) and depth the critical-path priority, cached at push time so
// the heap comparator never touches engine state.
type task struct {
	kind  taskKind
	id    int32
	seq   int64
	depth int32
}

// fetched caches a pulled (or locally produced) source block, optionally
// with a device-resident mirror for the paper's "GPU blocks" optimization.
// acquire fills an entry and sets ready last, under e.mu; from then on the
// entry is immutable except for once, which guards the lazy device→host
// materialization in hostOf: several executor workers may consume the same
// source block concurrently.
type fetched struct {
	host  []float64
	dev   *gpu.Buffer
	once  sync.Once
	ready bool
}

// blockApply sequences update applications into one target block. Because
// floating-point subtraction is not associative, contributions must land in
// a canonical order — ascending update index, the block's
// TaskGraph.UpdatesByTarget list — for the factor to be bit-identical across
// worker counts, rank counts and scheduling policies. A worker whose update
// finishes out of turn parks the scratch buffer in engine.parked; the worker
// that completes the preceding update drains what became applicable.
type blockApply struct {
	mu sync.Mutex
	// next indexes the block's UpdatesByTarget list at the next update to
	// apply; guarded by bs.mu.
	next int32
}

// awaited is the re-request state of one item another rank produces:
// exponential backoff between attempts, with at the earliest next attempt in
// wall-clock nanoseconds (ticks proved useless as a clock: the idle loop's
// short sleeps stretch to OS-timer granularity, freezing tick-based timers).
type awaited struct {
	item  int32
	count int32
	at    int64
}

// laneScratch is the reusable working memory of one executor goroutine
// (lane), private to it, so the per-task path neither allocates nor locks
// for it: scatterSub's row positions, sized for the tallest block, and the
// consumer-rank set announce fans a finished item out to.
type laneScratch struct {
	rpos  []int
	mark  []bool // by rank: already in ranks
	ranks []int
}

// consumer adds a rank to the consumer set of the item about to be announced.
func (ls *laneScratch) consumer(rank int) {
	if !ls.mark[rank] {
		ls.mark[rank] = true
		ls.ranks = append(ls.ranks, rank)
	}
}

// scratchPool recycles update scratch buffers in power-of-two size classes,
// so a steady-state update allocates nothing. Its lock is a leaf: nothing
// is acquired while holding it.
type scratchPool struct {
	mu   sync.Mutex
	free [bits.UintSize][][]float64 // by log2(capacity); guarded by p.mu
}

// get returns a buffer of length n ≥ 1 with unspecified contents.
func (p *scratchPool) get(n int) []float64 {
	c := bits.Len(uint(n - 1))
	p.mu.Lock()
	if l := p.free[c]; len(l) > 0 {
		buf := l[len(l)-1]
		p.free[c] = l[:len(l)-1]
		p.mu.Unlock()
		return buf[:n]
	}
	p.mu.Unlock()
	return make([]float64, n, 1<<c)
}

// put returns a buffer obtained from get.
func (p *scratchPool) put(buf []float64) {
	c := bits.TrailingZeros(uint(cap(buf)))
	p.mu.Lock()
	p.free[c] = append(p.free[c], buf)
	p.mu.Unlock()
}

// engine is the per-rank state of the fan-out factorization.
//
// Concurrency: a rank is `workers` goroutines pulling tasks from the RTQ.
// The rank's own goroutine (factorLoop, lane 0) also owns upcxx.Progress,
// inbox draining and the re-request protocol; the other workers-1 are
// helpers (workerLoop) that only execute tasks. The mutex mu guards all
// scheduler state: the RTQ heap, dependency counters, avail, inbox,
// wanted/remote, produced and doneTasks. Numeric kernels run outside mu;
// ordered application into target blocks is serialized per block by
// blockApply. Lock order: blockApply.mu before engine.mu, never the
// reverse; scratch.mu is a leaf, taken under blockApply.mu or under no lock
// at all and never held across another acquisition.
type engine struct {
	r   *upcxx.Rank
	st  *symbolic.Structure
	tg  *symbolic.TaskGraph
	a   *matrix.SparseSym
	m2d symbolic.BlockMap
	opt *Options
	// form is the task formulation (cached from opt). The protocol below
	// speaks in *items*: item ids < nBlocks are blocks, and — under
	// contribution-delivering formulations — item nBlocks+ui is the
	// computed contribution of update ui. dir, avail, produced and wanted
	// are all indexed by item id.
	form    symbolic.Formulation
	nBlocks int32
	dir     []upcxx.GlobalPtr // shared global directory of item pointers
	// peers is the per-factorization engine registry (index = rank).
	// Producer RPC closures use it to reach the consumer's inbox; the
	// closure executes on the consumer's rank goroutine inside Progress()
	// and goes through the locked enqueueSignal, because the consumer's
	// helpers share the engine state.
	peers []*engine

	// mu guards the scheduler state listed above; cond wakes idle helpers
	// when a task is pushed or the run ends.
	mu      sync.Mutex
	cond    *sync.Cond
	workers int  // goroutines executing tasks, the rank's own included
	stopped bool // set when factorLoop returns; helpers exit; guarded by e.mu
	// inflight counts tasks popped but not yet completed, so factorLoop can
	// tell "helpers busy" from "rank starved" when deciding to suspect
	// lost announcements. Guarded by e.mu.
	inflight int
	pushSeq  int64 // guarded by e.mu

	// owned is, per block id, the storage of the blocks this rank owns:
	// slices of one slab in the rank's shared segment (see setup).
	owned [][]float64

	// Dependency counters for tasks this rank owns, indexed by block id
	// and update index respectively. Guarded by e.mu.
	depBlock  []int32
	depUpdate []int32 // guarded by e.mu

	// avail caches source data this rank can consume, by item id (blocks,
	// then delivered contributions). Guarded by e.mu; an entry is frozen
	// once its ready flag is set, which is what licenses the two audited
	// unlocked reads in hostOf and trsm.
	avail []fetched

	// blk holds the per-block ordered-apply state and parked[ui] the
	// scratch of an update that finished before its turn (nil otherwise;
	// guarded by the target's blk mutex). Together with the task graph's
	// UpdatesByTarget lists they make the scatter-subtract order — and
	// therefore the factor bits — independent of execution interleaving.
	blk    []blockApply
	parked [][]float64

	// scratch recycles update scratch buffers (own leaf lock); lanes is
	// each executor goroutine's private working memory, indexed by lane.
	scratch scratchPool
	lanes   []laneScratch

	// signals received but not yet processed: item ids announced by
	// producers via RPC. Guarded by e.mu.
	inbox []int32

	rtq readyQueue // guarded by e.mu
	// progress counts executed tasks for the stall watchdog (shared
	// across ranks; may be nil in tests constructing engines directly).
	progress *atomic.Int64
	// chainDepth[k] = number of supernodal-tree ancestors above supernode
	// k, the critical-path priority (longer remaining chains run first).
	// Guarded by e.mu.
	chainDepth []int32

	totalTasks int // guarded by e.mu
	doneTasks  int // guarded by e.mu

	// Resilience state (lost-signal recovery, paper Fig. 4 hardened).
	// produced[item] is set by this rank once it has produced and announced
	// the item (a factored block, or a computed contribution under
	// fan-in/fan-both); writers are whichever workers ran the task and the
	// reader is the re-request RPC handler on the rank goroutine, so both
	// sides go through mu. Guarded by e.mu.
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

func newEngine(r *upcxx.Rank, st *symbolic.Structure, tg *symbolic.TaskGraph, a *matrix.SparseSym, m2d symbolic.BlockMap, opt *Options, dir []upcxx.GlobalPtr, peers []*engine) *engine {
	nItems := opt.Formulation.ItemCount(tg)
	e := &engine{
		r: r, st: st, tg: tg, a: a, m2d: m2d, opt: opt, dir: dir, peers: peers,
		form:      opt.Formulation,
		nBlocks:   int32(len(st.Blocks)),
		owned:     make([][]float64, len(st.Blocks)),
		depBlock:  make([]int32, len(st.Blocks)),
		depUpdate: make([]int32, len(tg.Updates)),
		avail:     make([]fetched, nItems),
		blk:       make([]blockApply, len(st.Blocks)),
		parked:    make([][]float64, len(tg.Updates)),
		produced:  make([]bool, nItems),
		wanted:    make([]bool, nItems),
		workers:   max(opt.Workers, 1),
	}
	var maxRows int32
	for bi := range st.Blocks {
		maxRows = max(maxRows, st.Blocks[bi].NRows)
	}
	e.lanes = make([]laneScratch, e.workers)
	for i := range e.lanes {
		e.lanes[i] = laneScratch{
			rpos:  make([]int, maxRows),
			mark:  make([]bool, m2d.P()),
			ranks: make([]int, 0, m2d.P()),
		}
	}
	e.cond = sync.NewCond(&e.mu)
	e.rtq.e = e
	e.met = newCoreMetrics(metrics.NewRegistry())
	return e
}

// mine reports whether this rank owns a block.
func (e *engine) mine(b *symbolic.Block) bool { return symbolic.OwnerOfBlock(e.m2d, b) == e.r.ID }

// setup allocates and assembles owned blocks, publishes their global
// pointers, and initializes all dependency counters and queues.
func (e *engine) setup() {
	st, tg := e.st, e.tg
	// No helper has started yet, so this is single-threaded — but take
	// e.mu anyway: "scheduler state is touched under e.mu, always" is a
	// checkable invariant, "except during setup" is not.
	e.mu.Lock()
	if e.opt.Scheduling == SchedCriticalPath {
		e.chainDepth = chainDepths(st)
	}
	// Owned blocks live back to back in one slab of the shared segment,
	// sized from the symbolic structure; each block publishes a pointer to
	// its own range.
	total := 0
	for bi := range st.Blocks {
		if b := &st.Blocks[bi]; e.mine(b) {
			m, n := blockDims(st, b)
			total += m * n
		}
	}
	slab, off := e.r.NewArray(total), 0
	for bi := range st.Blocks {
		b := &st.Blocks[bi]
		if !e.mine(b) {
			continue
		}
		m, n := blockDims(st, b)
		g := slab.Slice(off, off+m*n)
		off += m * n
		e.owned[b.ID] = g.Data
		e.dir[b.ID] = g
		// D/F dependency counter: updates targeting the block, plus the
		// diagonal factor for off-diagonal blocks.
		dep := tg.InUpdates[b.ID]
		if !b.IsDiag() {
			dep++
			// The panel factorization awaits the supernode's diagonal.
			e.want(st.DiagBlock(b.Snode).ID)
		}
		e.depBlock[b.ID] = dep
		e.totalTasks++
		if dep == 0 {
			e.push(taskFor(b), b.ID)
		}
	}
	// Update compute tasks execute at the owner of the formulation's
	// compute block — the target under fan-out, a source operand under
	// fan-in/fan-both. depUpdate stays zero for updates computed elsewhere,
	// which is how acquire tells them apart.
	deliver := e.form.DeliversContributions()
	for ui := range tg.Updates {
		u := &tg.Updates[ui]
		if deliver && e.mine(&st.Blocks[u.Target]) {
			// The apply task scatters the delivered contribution into the
			// target; it becomes ready when the contribution item arrives.
			e.want(e.nBlocks + int32(ui))
			e.totalTasks++
		}
		if !e.mine(&st.Blocks[e.form.ComputeBlock(u)]) {
			continue
		}
		deps := int32(2)
		if u.IsSyrk() {
			deps = 1
		}
		e.depUpdate[int32(ui)] = deps
		e.want(u.BlkA)
		e.want(u.BlkB)
		e.totalTasks++
	}
	for item, w := range e.wanted {
		if w && e.itemProducer(int32(item)) != e.r.ID {
			e.remote = append(e.remote, awaited{item: int32(item)})
		}
	}
	e.met.tasksTotal.Set(float64(e.totalTasks))
	e.mu.Unlock()
	e.assemble()
}

// want marks an item as awaited by this rank's tasks; callers hold e.mu.
func (e *engine) want(item int32) {
	if !e.wanted[item] {
		e.wanted[item] = true
		e.nWanted++
	}
}

func taskFor(b *symbolic.Block) taskKind {
	if b.IsDiag() {
		return taskDiag
	}
	return taskFactor
}

// assemble scatters the permuted matrix entries into the owned blocks.
func (e *engine) assemble() {
	st, a := e.st, e.a
	for j := 0; j < a.N; j++ {
		k := st.SnOf[j]
		sn := &st.Snodes[k]
		col := int(int32(j) - sn.FirstCol)
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			r := a.RowInd[p]
			rsn := st.SnOf[r]
			bid := st.FindBlock(rsn, k)
			if bid < 0 {
				panic(fmt.Sprintf("core: entry (%d,%d) outside symbolic structure", r, j))
			}
			data := e.owned[st.Blocks[bid].ID]
			if data == nil {
				continue // another rank's block
			}
			b := &st.Blocks[bid]
			pos := e.rowPosInBlock(b, r)
			data[pos+col*int(b.NRows)] = a.Val[p]
		}
	}
}

// rowPosInBlock locates global row r within a block's row list.
func (e *engine) rowPosInBlock(b *symbolic.Block, r int32) int {
	pos := e.rowPosInBlockOrMissing(b, r)
	if pos < 0 {
		panic(fmt.Sprintf("core: row %d not in block %d", r, b.ID))
	}
	return pos
}

// rowPosInBlockOrMissing locates global row r within a block's row list,
// returning -1 when the row is absent — which only incomplete (IC) scatter
// tolerates: a source row whose target position was dropped by the level
// rule discards its contribution instead of landing it.
func (e *engine) rowPosInBlockOrMissing(b *symbolic.Block, r int32) int {
	sn := &e.st.Snodes[b.Snode]
	rows := sn.Rows[b.RowOff : b.RowOff+b.NRows]
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

// push enqueues a task whose dependencies are satisfied and wakes one idle
// worker. Callers hold e.mu (including setup, which runs single-threaded
// but locks anyway to keep the guarded-field discipline uniform).
func (e *engine) push(kind taskKind, id int32) {
	t := task{kind: kind, id: id, seq: e.pushSeq}
	e.pushSeq++
	if e.chainDepth != nil {
		t.depth = e.chainDepth[e.taskSupernode(t)]
	}
	e.rtq.push(t)
	depth := float64(e.rtq.Len())
	e.met.rtqDepth.Set(depth)
	e.met.rtqPeak.SetMax(depth)
	e.cond.Signal()
}

// chainDepths returns, per supernode, the length of its ancestor chain in
// the supernodal elimination tree.
func chainDepths(st *symbolic.Structure) []int32 {
	nsn := len(st.Snodes)
	depth := make([]int32, nsn)
	// Supernodal parents have higher indices, so a reverse sweep sees
	// every parent before its children.
	for k := nsn - 1; k >= 0; k-- {
		if p := st.SnParent[k]; p != -1 {
			depth[k] = depth[p] + 1
		}
	}
	return depth
}

// taskSupernode returns the supernode a task advances, for prioritization.
func (e *engine) taskSupernode(t task) int32 {
	if t.kind == taskUpdate || t.kind == taskApply {
		return e.st.Blocks[e.tg.Updates[t.id].Target].Snode
	}
	return e.st.Blocks[t.id].Snode
}

// pop removes the highest-priority task from the RTQ heap according to the
// scheduling policy; callers hold e.mu. The comparator (see engine.before)
// is a strict total order, so the pop sequence is deterministic for a given
// push sequence — no tie-break depends on queue memory layout.
func (e *engine) pop() (task, bool) {
	if e.rtq.Len() == 0 {
		return task{}, false
	}
	t := e.rtq.pop()
	e.met.rtqDepth.Set(float64(e.rtq.Len()))
	return t, true
}

// checkCanceled consults Options.Context at a task-pull boundary. On
// cancellation it fails the runtime with an ErrCanceled-wrapped error
// (first failure wins, so concurrent detections collapse to one) and
// returns true; the caller's scheduling loop then exits and the abort
// propagates to every other rank through ShouldAbort. Runs without e.mu.
func (e *engine) checkCanceled() bool {
	ctx := e.opt.Context
	if ctx == nil {
		return false
	}
	err := ctx.Err()
	if err == nil {
		return false
	}
	e.met.cancelChecks.Inc()
	e.r.Runtime().Fail(fmt.Errorf("%w: rank %d: %v", ErrCanceled, e.r.ID, err))
	return true
}

// factorLoop is the scheduling loop of paper Fig. 3, run by the rank's own
// goroutine (executor lane 0): poll for incoming notifications, then run a
// ready task; repeat until all local tasks are done or the job aborts. When
// the rank is starved — no ready task AND no helper mid-task — with source
// blocks still outstanding it suspects lost announcements and runs the
// re-request protocol, turning what used to be a silent deadlock into
// recovery. Helpers (workerLoop, pool.go) share pop, execute and complete.
func (e *engine) factorLoop() {
	rt := e.r.Runtime()
	idle := 0
	for {
		if rt.ShouldAbort() {
			return
		}
		if e.checkCanceled() {
			return
		}
		e.poll()
		e.mu.Lock()
		e.mirrorHealth()
		if e.doneTasks >= e.totalTasks {
			e.mu.Unlock()
			return
		}
		t, ok := e.pop()
		if ok {
			e.inflight++
		}
		starved := !ok && e.inflight == 0
		e.mu.Unlock()
		if ok {
			idle = 0
			e.execute(t, 0)
			e.complete()
			continue
		}
		if !starved {
			idle = 0
			runtime.Gosched()
			continue
		}
		idle++
		if idle > 256 && idle%64 == 0 {
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
// found nothing to do it yields the processor, and past 256 of them sleeps
// instead so a starved rank stops spinning. It reports whether it slept.
func idleWait(idle int) bool {
	if idle > 256 {
		machine.Backoff(20 * time.Microsecond)
		return true
	}
	runtime.Gosched()
	return false
}

// mirrorHealth refreshes the scheduler-occupancy gauges the watchdog and
// the /metrics endpoint read while the rank runs; callers hold e.mu.
func (e *engine) mirrorHealth() {
	e.met.tasksDone.Set(float64(e.doneTasks))
	e.met.rtqDepth.Set(float64(e.rtq.Len()))
	e.met.inboxDepth.Set(float64(len(e.inbox)))
	e.met.wantedBlocks.Set(float64(e.nWanted))
}

// drainUntil keeps executing incoming RPCs after this rank's own tasks are
// done, until the job-wide progress counter reaches total (or the job
// aborts). Without it a finished producer parked in the final barrier would
// never run the re-request RPCs other ranks aim at it.
func (e *engine) drainUntil(progress *atomic.Int64, total int64) {
	rt := e.r.Runtime()
	idle := 0
	for progress.Load() < total && !rt.ShouldAbort() {
		if e.checkCanceled() {
			return
		}
		e.r.Progress()
		idle++
		idleWait(idle)
	}
}

// reRequestLost asks the producers of still-awaited remote items — source
// blocks, and contribution items under fan-in/fan-both — to re-announce
// anything they have already produced. A producer that has not produced
// the item yet ignores the request (the real announcement will come); one
// whose announcement was dropped re-signals, and the consumer's normal
// poll path takes it from there. Per-item exponential backoff keeps the
// recovery traffic bounded, and the request/redeliver RPCs are themselves
// subject to injection — the protocol only assumes the network delivers
// eventually, not reliably.
func (e *engine) reRequestLost() {
	// Callers hold e.mu (wanted/remote are scheduler state).
	now := machine.WallNow().UnixNano()
	// e.remote ascends by item id: the recovery RPCs race the normal
	// announcement path, so their order must be a function of the items,
	// not of when each was first awaited.
	kept := e.remote[:0]
	for _, w := range e.remote {
		if !e.wanted[w.item] {
			continue // acquired since the last sweep
		}
		if now >= w.at {
			w.at = now + int64(4*time.Millisecond)<<min(w.count, 6)
			w.count++
			e.reRequest(w.item)
		}
		kept = append(kept, w)
	}
	e.remote = kept
}

// reRequest asks an item's producer to re-announce it if already produced;
// callers hold e.mu.
func (e *engine) reRequest(b int32) {
	rt := e.r.Runtime()
	owner := e.itemProducer(b)
	requester := e.r.ID
	peers := e.peers
	e.met.reRequests.Inc()
	rt.CountReRequest()
	if tr := e.opt.Trace; tr != nil {
		tr.End(int32(e.r.ID), "fault:re-request", tr.Begin(), fmt.Sprintf("item=%d owner=%d", b, owner))
	}
	e.r.RPC(owner, func(t *upcxx.Rank) {
		// Runs on the producer's rank goroutine: if the item is done,
		// re-announce it to the requester; duplicates are absorbed by
		// acquire. produced is written by the producer's workers, so
		// read it under the producer's mu.
		pe := peers[t.ID]
		pe.mu.Lock()
		done := pe.produced[b]
		pe.mu.Unlock()
		if !done {
			return
		}
		rt.CountRedelivery()
		t.RPC(requester, func(c *upcxx.Rank) {
			peers[c.ID].enqueueSignal(b)
		})
	})
}

// retryNow clears a remote item's re-request backoff after a failed fetch,
// so the next idle sweep asks for a fresh announcement; callers hold e.mu.
func (e *engine) retryNow(item int32) {
	byItem := func(w awaited, item int32) int { return cmp.Compare(w.item, item) }
	if i, ok := slices.BinarySearchFunc(e.remote, item, byItem); ok {
		e.remote[i].at = 0
	}
}

// enqueueSignal records an announced block id for the next poll. It is the
// only inbox writer and runs inside RPC closures on this rank's own
// goroutine; the lock orders it against the poll drain and against health
// snapshots taken while helpers run.
func (e *engine) enqueueSignal(bid int32) {
	e.mu.Lock()
	e.inbox = append(e.inbox, bid)
	e.mu.Unlock()
}

// poll drains the RPC queue (which enqueues announced block ids into the
// inbox) and then fetches each announced block with a one-sided get,
// updating dependency counters — paper Fig. 4 steps 2–6. Only the rank
// goroutine (factorLoop) calls it.
func (e *engine) poll() {
	e.r.Progress()
	e.mu.Lock()
	// enqueueSignal is the only inbox writer and needs e.mu, so the drain
	// sees a fixed slice and can keep its backing array.
	for _, bid := range e.inbox {
		e.acquire(bid)
	}
	e.inbox = e.inbox[:0]
	e.mu.Unlock()
}

// acquire makes a source item locally available (fetching it if remote)
// and propagates dependency decrements: a block readies the F/U tasks
// consuming it, a contribution item readies its apply task. It is
// idempotent — duplicated announcements return early — and fault-tolerant:
// a transfer whose retry budget ran out leaves the item in the wanted set,
// where the re-request protocol triggers a fresh announcement and a fresh
// fetch. Callers hold e.mu; the mutex release at the subsequent pop is the
// happens-before edge that lets workers read avail entries unlocked
// afterwards (acquire never rewrites a ready entry).
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
				if f := e.r.Copy(src, upcxx.GlobalPtr{Rank: int32(e.r.ID), Kind: simnet.Device, Data: buf.Data}); f.OK() {
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
			host := make([]float64, src.Len())
			if f := e.r.Rget(src, host); !f.OK() {
				// Retries exhausted: keep the block wanted and let the
				// re-request path re-signal it; a later acquire retries
				// the get with a fresh attempt budget.
				e.met.fetchFailures.Inc()
				e.retryNow(bid)
				return
			}
			fc.host = host
		}
	}
	e.acquired(item)
	if b.IsDiag() {
		// Local panel blocks of this supernode lose their diagonal
		// dependency.
		for _, fb := range e.st.SnodeBlocks(b.Snode)[1:] {
			if e.owned[fb.ID] != nil {
				e.decBlock(fb.ID)
			}
		}
	}
	// Updates computed here that consume this block lose one source
	// dependency; a zero counter is an update computed on another rank
	// (a local one still counts this very block).
	for _, ui := range e.tg.UpdatesBySource[bid] {
		if e.depUpdate[ui] == 0 {
			continue
		}
		e.depUpdate[ui]--
		e.met.depDecrements.Inc()
		if e.depUpdate[ui] == 0 {
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
	// Computed on this rank (the compute owner is also the target owner):
	// the published buffer is directly readable.
	host := src.Data
	if int(src.Rank) != e.r.ID {
		host = make([]float64, src.Len())
		if f := e.r.Rget(src, host); !f.OK() {
			e.met.fetchFailures.Inc()
			e.retryNow(item)
			return
		}
	}
	e.avail[item].host = host
	e.acquired(item)
	e.push(taskApply, item-e.nBlocks)
}

// itemProducer returns the rank that produces an item: the owner of a
// block, or — for a contribution — the owner of the update's compute block
// under the active formulation.
func (e *engine) itemProducer(item int32) int {
	if item < e.nBlocks {
		return symbolic.OwnerOfBlock(e.m2d, &e.st.Blocks[item])
	}
	u := &e.tg.Updates[item-e.nBlocks]
	return symbolic.OwnerOfBlock(e.m2d, &e.st.Blocks[e.form.ComputeBlock(u)])
}

// hostOf returns the host copy of an available item (source block or
// delivered contribution), materializing it from the device mirror when a
// block was fetched device-direct. Concurrent workers consuming the same
// item race to materialize; once serializes.
func (e *engine) hostOf(item int32) []float64 {
	//lint:ignore mutexguard an avail entry is frozen once ready (set under e.mu); the pop that scheduled this task happens-after acquire published the entry (see acquire's doc)
	fc := &e.avail[item]
	if fc.dev != nil {
		fc.once.Do(func() {
			fc.host = make([]float64, fc.dev.Len())
			e.r.Charge(e.r.Device().DeviceToHost(fc.host, fc.dev))
		})
	}
	return fc.host
}

// decBlockN retires n of a block's dependencies, readying its task at
// zero; callers hold e.mu.
func (e *engine) decBlockN(bid, n int32) {
	e.depBlock[bid] -= n
	e.met.depDecrements.Add(float64(n))
	if e.depBlock[bid] == 0 {
		e.push(taskFor(&e.st.Blocks[bid]), bid)
	}
}

// decBlock retires one dependency of a block; callers hold e.mu.
func (e *engine) decBlock(bid int32) { e.decBlockN(bid, 1) }

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

// traceKind and traceLabel name a task on the timeline.
var (
	traceKind  = [...]string{taskDiag: "D", taskFactor: "F", taskUpdate: "U", taskApply: "A"}
	traceLabel = [...]string{taskDiag: "sn=%d", taskFactor: "blk=%d", taskUpdate: "upd=%d", taskApply: "upd=%d"}
)

// execute dispatches one ready task, recording it on the executing lane
// when tracing is on. Runs outside e.mu; the caller accounts completion.
func (e *engine) execute(t task, lane int32) {
	tr := e.opt.Trace
	start := tr.Begin()
	ls := &e.lanes[lane]
	switch t.kind {
	case taskDiag:
		e.runDiag(t.id, ls)
	case taskFactor:
		e.runFactor(t.id, ls)
	case taskUpdate:
		e.runUpdate(t.id, ls)
	case taskApply:
		e.runApply(t.id, ls)
	}
	if tr == nil {
		return // a nil recorder drops the event, but only after its label was formatted
	}
	arg := t.id
	if t.kind == taskDiag {
		arg = e.st.Blocks[t.id].Snode
	}
	tr.EndLane(int32(e.r.ID), lane, traceKind[t.kind], start, fmt.Sprintf(traceLabel[t.kind], arg))
}

// announce notifies every rank holding tasks that consume an item — a
// factored block (paper Fig. 4 step 1) or a computed contribution under
// fan-in/fan-both; the caller collected them in ls (laneScratch.consumer),
// and the local rank is handled directly. It also records the item as
// produced so the re-request protocol can serve consumers whose
// notification the network lost. The producing worker's write to the item
// data happens-before every consumer read: locally via e.mu (acquire under
// the same lock the consuming pop takes), remotely via the RPC queue lock
// followed by the consumer's inbox drain under its mu.
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
		b := bid
		peers := e.peers
		e.r.RPC(rank, func(target *upcxx.Rank) {
			// Runs on the consumer's rank goroutine inside Progress():
			// record the notification; the consumer's poll does the get.
			peers[target.ID].enqueueSignal(b)
		})
	}
	ls.ranks = ls.ranks[:0]
}

// runDiag executes D_k: POTRF of the diagonal block, then fan-out to the
// panel owners.
func (e *engine) runDiag(bid int32, ls *laneScratch) {
	st := e.st
	b := &st.Blocks[bid]
	data := e.owned[bid]
	n, _ := blockDims(st, b)
	if err := e.potrf(n, data); err != nil {
		e.r.Runtime().Fail(fmt.Errorf("%w: supernode %d: %v", ErrNotPositiveDefinite, b.Snode, err))
		return
	}
	if e.fp32() {
		blas.Round32(data)
	}
	// Consumers: owners of the off-diagonal blocks of this supernode.
	blks := st.SnodeBlocks(b.Snode)
	for i := 1; i < len(blks); i++ {
		ls.consumer(symbolic.OwnerOfBlock(e.m2d, &blks[i]))
	}
	e.announce(bid, ls)
}

// runFactor executes F_{i,k}: TRSM of an off-diagonal panel block against
// the supernode's factorized diagonal, then fan-out to update owners.
func (e *engine) runFactor(bid int32, ls *laneScratch) {
	st := e.st
	b := &st.Blocks[bid]
	data := e.owned[bid]
	m, n := blockDims(st, b)
	e.trsm(m, n, st.DiagBlock(b.Snode).ID, data)
	if e.fp32() {
		blas.Round32(data)
	}
	// Consumers: owners of the formulation's compute blocks of every
	// update using this block — the target's owner under fan-out, a source
	// operand's owner under fan-in/fan-both.
	for _, ui := range e.tg.UpdatesBySource[bid] {
		u := &e.tg.Updates[ui]
		ls.consumer(symbolic.OwnerOfBlock(e.m2d, &st.Blocks[e.form.ComputeBlock(u)]))
	}
	e.announce(bid, ls)
}

// runUpdate executes U_{i,j,k}: W = B_{i,j}·B_{k,j}ᵀ (SYRK when the blocks
// coincide), then commits the contribution — directly through the
// ordered-apply path under fan-out, or by publishing it to the target's
// owner under the contribution-delivering formulations.
func (e *engine) runUpdate(ui int32, ls *laneScratch) {
	st := e.st
	u := &e.tg.Updates[ui]
	ba := &st.Blocks[u.BlkA] // B_{k,j}
	bb := &st.Blocks[u.BlkB] // B_{i,j}

	w := st.Snodes[u.SrcSn].NCols() // inner dimension
	mB := int(bb.NRows)
	nA := int(ba.NRows)
	// A contribution that will be published keeps its buffer for the rest
	// of the run (the shared segment adopts it); one applied here comes from
	// the pool and goes back once scattered. Every kernel below overwrites
	// the part of scratch that scatterSub reads.
	deliver := e.form.DeliversContributions()
	var scratch []float64
	if deliver {
		scratch = make([]float64, mB*nA)
	} else {
		scratch = e.scratch.get(mB * nA)
	}

	hostA := e.hostOf(u.BlkA)
	if u.IsSyrk() {
		e.syrk(mB, w, hostA, scratch)
	} else {
		e.gemm(mB, nA, w, e.hostOf(u.BlkB), hostA, scratch)
	}

	if deliver {
		e.publishContribution(ui, scratch, ls)
		return
	}
	e.applyUpdate(ui, scratch, ls)
}

// publishContribution ships a computed contribution toward the target
// block's owner under fan-in/fan-both: the scratch buffer is adopted into
// this rank's shared segment, published in the item directory, and
// announced exactly like a factored block — so a lost or duplicated
// contribution signal is recovered by the same re-request protocol. The
// target's apply task scatters it in the canonical order.
func (e *engine) publishContribution(ui int32, scratch []float64, ls *laneScratch) {
	item := e.nBlocks + ui
	g := e.r.NewArrayFrom(scratch)
	e.mu.Lock()
	e.dir[item] = g
	e.mu.Unlock()
	tgt := &e.st.Blocks[e.tg.Updates[ui].Target]
	ls.consumer(symbolic.OwnerOfBlock(e.m2d, tgt))
	e.announce(item, ls)
}

// runApply executes A_{i,j,k}: scatter a delivered contribution into its
// target block through the ordered-apply path. The numeric work already
// happened at the compute rank; the separate task exists so the scatter
// runs on the target's executor outside e.mu — blockApply.mu must be taken
// strictly before engine.mu, so acquire (which holds e.mu) cannot apply
// inline.
func (e *engine) runApply(ui int32, ls *laneScratch) {
	e.applyUpdate(ui, e.hostOf(e.nBlocks+ui), ls)
}

// applyUpdate commits a computed update contribution to its target block in
// the canonical order (ascending update index: the target's UpdatesByTarget
// list). An update finishing out of turn parks its scratch; the worker
// completing the preceding update drains everything that became applicable.
// Because every contribution lands in the same order no matter which worker,
// rank or scheduling policy produced it — and floating-point subtraction is
// not associative — the factor is bit-identical across all those dimensions.
// Under fan-out the scratch is a pool buffer and returns there once
// scattered; a delivered contribution stays published.
func (e *engine) applyUpdate(ui int32, scratch []float64, ls *laneScratch) {
	bid := e.tg.Updates[ui].Target
	turn := e.tg.UpdatesByTarget[bid]
	pooled := !e.form.DeliversContributions()
	bs := &e.blk[bid]
	bs.mu.Lock()
	if turn[bs.next] != ui {
		e.parked[ui] = scratch
		bs.mu.Unlock()
		e.met.updatesParked.Inc()
		return
	}
	applied := int32(0)
	for {
		e.scatterSub(ui, scratch, ls.rpos)
		if pooled {
			e.scratch.put(scratch)
		}
		bs.next++
		applied++
		if int(bs.next) == len(turn) {
			break
		}
		ui = turn[bs.next]
		if scratch = e.parked[ui]; scratch == nil {
			break
		}
		e.parked[ui] = nil
	}
	bs.mu.Unlock()
	// Lock order: blockApply.mu strictly before engine.mu.
	e.mu.Lock()
	e.decBlockN(bid, applied)
	e.mu.Unlock()
}

// scatterSub subtracts one update's scratch contribution from its target
// block. Row positions come from the source row lists; column positions are
// the A-block rows relative to the target supernode's first column; rpos is
// the calling lane's row-position buffer. Callers hold the target's
// blockApply mutex.
func (e *engine) scatterSub(ui int32, scratch []float64, rpos []int) {
	st := e.st
	u := &e.tg.Updates[ui]
	ba := &st.Blocks[u.BlkA]
	bb := &st.Blocks[u.BlkB]
	tb := &st.Blocks[u.Target]
	tdata := e.owned[u.Target]
	mB := int(bb.NRows)
	syrk := u.IsSyrk()

	snj := &st.Snodes[u.SrcSn]
	snk := &st.Snodes[tb.Snode]
	rowsB := snj.Rows[bb.RowOff : bb.RowOff+bb.NRows]
	rowsA := snj.Rows[ba.RowOff : ba.RowOff+ba.NRows]
	ldT := int(tb.NRows)
	rpos = rpos[:mB]
	if e.st.Incomplete {
		// IC structures drop rows individually: a block that survived the
		// level rule may still lack some of the source's rows. Missing
		// positions mark their contributions for discard.
		for x, r := range rowsB {
			rpos[x] = e.rowPosInBlockOrMissing(tb, r)
		}
	} else {
		for x, r := range rowsB {
			rpos[x] = e.rowPosInBlock(tb, r)
		}
	}
	for y, c := range rowsA {
		colT := int(c - snk.FirstCol)
		colBase := colT * ldT
		wcol := scratch[y*mB : y*mB+mB]
		if syrk {
			// Only the lower triangle of scratch is populated.
			for x := y; x < mB; x++ {
				if rpos[x] < 0 {
					continue
				}
				tdata[rpos[x]+colBase] -= wcol[x]
			}
		} else {
			for x := 0; x < mB; x++ {
				if rpos[x] < 0 {
					continue
				}
				tdata[rpos[x]+colBase] -= wcol[x]
			}
		}
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
	if e.fp32() {
		// fp32 mode keeps every kernel on the CPU: the device model has no
		// fp32 rate or fp32 copy width, and modeled numbers must not move
		// with a precision it cannot price. Count the offloads the
		// threshold would have admitted as demotions so the cost of the
		// policy is visible.
		if e.opt.Thresholds.ShouldOffload(op, elems) {
			e.met.fp32Demotions.Inc()
		}
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
// host kernels in this package.

// potrf factors the n×n diagonal block in place.
func (e *engine) potrf(n int, data []float64) error {
	if e.offload(machine.OpPotrf, n*n) {
		done, err := e.onDevice(machine.OpPotrf, []operand{{host: data, in: true, out: true}},
			func(d *gpu.Device, b []*gpu.Buffer) (float64, error) { return d.Potrf(n, b[0], n) })
		if done {
			return err
		}
	}
	e.chargeCPU(machine.OpPotrf, machine.KernelFlops(machine.OpPotrf, 0, n, 0))
	return blas.Potrf(blas.Lower, n, data, n)
}

// trsm solves the m×n panel block against the supernode's factored
// diagonal, reusing the device copy of the diagonal when the fetch already
// placed it there (GPU-blocks optimization).
func (e *engine) trsm(m, n int, diagID int32, data []float64) {
	if e.offload(machine.OpTrsm, m*n) {
		//lint:ignore mutexguard an avail entry is frozen once ready (set under e.mu); the pop that scheduled this TRSM happens-after acquire published the diagonal
		diag := operand{resident: e.avail[diagID].dev}
		if diag.resident == nil {
			diag = operand{host: e.hostOf(diagID), in: true}
		}
		done, _ := e.onDevice(machine.OpTrsm, []operand{diag, {host: data, in: true, out: true}},
			func(d *gpu.Device, b []*gpu.Buffer) (float64, error) { return d.Trsm(m, n, b[0], n, b[1], m), nil })
		if done {
			return
		}
	}
	e.chargeCPU(machine.OpTrsm, machine.KernelFlops(machine.OpTrsm, m, n, 0))
	blas.Trsm(blas.Right, blas.Lower, blas.Transpose, m, n, 1, e.hostOf(diagID), n, data, m)
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

// gemm computes scratch = B·Aᵀ, B being m×k and A n×k.
func (e *engine) gemm(m, n, k int, b, a, scratch []float64) {
	if e.offload(machine.OpGemm, m*n) {
		done, _ := e.onDevice(machine.OpGemm, []operand{{host: b, in: true}, {host: a, in: true}, {host: scratch, out: true}},
			func(d *gpu.Device, bufs []*gpu.Buffer) (float64, error) {
				return d.Gemm(m, n, k, bufs[0], m, bufs[1], n, bufs[2], m), nil
			})
		if done {
			return
		}
	}
	e.chargeCPU(machine.OpGemm, machine.KernelFlops(machine.OpGemm, m, n, k))
	blas.Gemm(blas.NoTrans, blas.Transpose, m, n, k, 1, b, m, a, n, 0, scratch, m)
}

// ErrInternal flags invariant violations.
var ErrInternal = errors.New("core: internal error")
