// Package upcxx is the in-process substitute for the UPC++ PGAS library the
// paper builds on (§3.4, §4.1). It provides the primitives symPACK's
// communication paradigm is written against:
//
//   - ranks with private memory and global pointers carrying affinity;
//   - one-sided RMA (Rget, Copy) that moves data without involving the
//     remote rank's execution stream and returns once it has finished, with
//     an error when its retries ran out;
//   - typed signals: a fixed-size message value (Msg) enqueued on the
//     target and handed to the job's one handler when the target calls
//     Progress() — the paper's signal(ptr,meta) notification;
//   - memory kinds: global pointers to device memory allocated from a
//     per-rank device allocator, and a device-aware Copy() that models the
//     zero-copy GPUDirect path (or the staged reference path) between any
//     combination of host and device memories on any ranks;
//   - quiescence detection (Rank.Idle, Runtime.Quiescent): whether every
//     rank is idle and every signal enqueued has been handled, so the job
//     can move again only if a rank sends a signal on its own.
//
// Ranks run as goroutines inside one process, so "RMA" is a memcpy; the
// modeled time of each transfer is computed by internal/simnet and
// accounted on the initiating rank's virtual clock, while correctness
// (who may read what, when) follows the same notification discipline the
// real library requires.
package upcxx

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"sympack/internal/faults"
	"sympack/internal/gpu"
	"sympack/internal/machine"
	"sympack/internal/metrics"
	"sympack/internal/simnet"
	"sympack/internal/trace"
)

// Config describes the simulated job layout.
type Config struct {
	Ranks        int
	RanksPerNode int // 0 = all ranks on one node
	GPUsPerNode  int // 0 = no devices
	Machine      machine.Machine
	// DeviceCapacity is the per-device memory in float64 elements
	// (0 = unbounded). All ranks bound to a device share its capacity,
	// as on a real node.
	DeviceCapacity int64
	// Faults, when non-nil, is consulted on every signal, transfer, and
	// device allocation; nil means a perfect network.
	Faults *faults.Injector
	// Trace, when non-nil, receives instant fault/recovery events so
	// Chrome traces show them alongside task events.
	Trace *trace.Recorder
}

// The retry loop of a transiently failing Rget/Copy makes at most
// transferAttempts attempts; the modeled wait before the first retry is
// transferBackoff seconds and doubles per attempt, which defines the
// per-operation timeout.
const (
	transferAttempts = 8
	transferBackoff  = 2e-6
)

// elemBytes is the modeled width of one transferred element: a float64.
const elemBytes = 8

// Runtime is one simulated UPC++ job.
type Runtime struct {
	cfg     Config
	net     *simnet.Network
	ranks   []*Rank
	devices []*gpu.Device
	bar     *barrier

	aborted atomic.Bool
	failMu  sync.Mutex
	failErr error

	// handler interprets every delivered signal; set by Handle before Run.
	handler Handler

	// reg is the job's one counter store and met its hot-path handles
	// (see metrics.go); created unconditionally by NewRuntime.
	reg *metrics.Registry
	met *rtMetrics
}

// NewRuntime creates a runtime with the given layout.
func NewRuntime(cfg Config) (*Runtime, error) {
	if cfg.Ranks < 1 {
		return nil, fmt.Errorf("upcxx: need at least one rank, got %d", cfg.Ranks)
	}
	if cfg.RanksPerNode <= 0 {
		cfg.RanksPerNode = cfg.Ranks
	}
	rt := &Runtime{
		cfg: cfg,
		net: simnet.New(cfg.Machine),
		bar: newBarrier(cfg.Ranks),
		reg: metrics.NewRegistry(),
	}
	rt.met = newRTMetrics(rt.reg)
	nodes := (cfg.Ranks + cfg.RanksPerNode - 1) / cfg.RanksPerNode
	if cfg.GPUsPerNode > 0 {
		rt.devices = make([]*gpu.Device, nodes*cfg.GPUsPerNode)
		for i := range rt.devices {
			rt.devices[i] = gpu.NewDevice(i, cfg.Machine, cfg.DeviceCapacity)
			rt.devices[i].SetFaults(cfg.Faults)
			rt.devices[i].SetMetrics(rt.reg)
		}
	}
	rt.ranks = make([]*Rank, cfg.Ranks)
	for i := 0; i < cfg.Ranks; i++ {
		r := &Rank{ID: i, rt: rt}
		if cfg.GPUsPerNode > 0 {
			// The paper's recommended binding: process p on its node is
			// bound to device (p mod d).
			node := i / cfg.RanksPerNode
			local := i % cfg.RanksPerNode
			r.device = rt.devices[node*cfg.GPUsPerNode+local%cfg.GPUsPerNode]
		}
		rt.ranks[i] = r
	}
	return rt, nil
}

// P returns the rank count.
func (rt *Runtime) P() int { return rt.cfg.Ranks }

// Network exposes the transfer-cost model.
func (rt *Runtime) Network() *simnet.Network { return rt.net }

// Node returns the node index hosting a rank.
func (rt *Runtime) Node(rank int) int { return rank / rt.cfg.RanksPerNode }

// Devices returns the simulated devices (one slice entry per physical GPU).
func (rt *Runtime) Devices() []*gpu.Device { return rt.devices }

// Fail records the first error and aborts the job: barriers release and
// ShouldAbort turns true everywhere.
func (rt *Runtime) Fail(err error) {
	rt.failMu.Lock()
	if rt.failErr == nil {
		rt.failErr = err
	}
	rt.failMu.Unlock()
	rt.aborted.Store(true)
	rt.bar.abort()
}

// Err returns the recorded failure, if any.
func (rt *Runtime) Err() error {
	rt.failMu.Lock()
	defer rt.failMu.Unlock()
	return rt.failErr
}

// ShouldAbort reports whether the job is aborting.
func (rt *Runtime) ShouldAbort() bool { return rt.aborted.Load() }

// Run executes f once per rank, each in its own goroutine, and waits for
// all to return. A panicking rank aborts the whole job and surfaces as an
// error. Run may be called repeatedly (phases).
func (rt *Runtime) Run(f func(r *Rank)) error {
	var wg sync.WaitGroup
	wg.Add(len(rt.ranks))
	for _, r := range rt.ranks {
		go func(r *Rank) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					rt.Fail(fmt.Errorf("upcxx: rank %d panicked: %v", r.ID, p))
				}
			}()
			f(r)
		}(r)
	}
	wg.Wait()
	return rt.Err()
}

// ErrAborted is returned by Barrier when the job failed.
var ErrAborted = errors.New("upcxx: job aborted")

// ---------------------------------------------------------------- Rank ----

// Rank is one simulated UPC++ process. A rank may host several goroutines
// executing tasks (the engine's rank goroutine and its helpers); the clock
// is charge-safe from any of them, while Progress is serialized so signal
// handling keeps the single-threaded execution guarantee of the real
// library's progress engine.
type Rank struct {
	ID int
	rt *Runtime

	// inq receives signals (Signal appends under qmu); delayq is the
	// injected-delay holding pen, matured by Progress. runq is the batch
	// Progress is handling, touched only under progressMu: Progress swaps
	// it with inq under qmu, so both backing arrays are reused and a drain
	// neither allocates nor races an enqueue.
	qmu    sync.Mutex
	inq    []Msg
	delayq []delayedMsg
	runq   []Msg

	// progressMu serializes Progress so handler execution is
	// single-threaded per rank even if more than one goroutine polls.
	progressMu sync.Mutex

	device *gpu.Device
	clock  machine.Clock

	// The quiescence counters (Quiescent), each written only by this
	// rank's goroutines, so a signal touches no job-wide word: the signals
	// this rank enqueued on any target (a duplicate counts twice, a dropped
	// signal never counts), the signals its Progress handed to the handler,
	// and its idle transitions, odd while the rank is idle. The padding
	// gives them a cache line of their own: without it they share one with
	// the queue lock of the rank allocated next, which every sender to
	// that rank takes.
	_                       [64]byte
	enqueued, handled, idle atomic.Int64
	_                       [40]byte
}

// delayedMsg is a signal the injector deferred by `ticks` progress calls on
// the target.
type delayedMsg struct {
	m     Msg
	ticks int
}

// Runtime returns the owning runtime.
func (r *Rank) Runtime() *Runtime { return r.rt }

// Device returns the GPU this rank is bound to (nil when the job has no
// devices).
func (r *Rank) Device() *gpu.Device { return r.device }

// Charge adds modeled seconds to this rank's virtual clock. Kernels and
// transfers executed on behalf of the rank call it; user code may too.
func (r *Rank) Charge(dt float64) { r.clock.Advance(dt) }

// Elapsed returns the rank's accumulated virtual seconds.
func (r *Rank) Elapsed() float64 { return r.clock.Seconds() }

// Barrier blocks until every rank arrives (or the job aborts).
func (r *Rank) Barrier() error { return r.rt.bar.await(r.rt) }

// ------------------------------------------------------- global memory ----

// GlobalPtr references memory with affinity to a rank, possibly device
// memory (memory kinds). The zero value is a null pointer.
type GlobalPtr struct {
	Rank int32
	Kind simnet.MemKind
	Data []float64 // aliases the owner's storage
}

// Len returns the referenced element count.
func (g GlobalPtr) Len() int { return len(g.Data) }

// Slice returns a sub-pointer covering elements [lo, hi) and nothing beyond:
// the capacity is clipped too, so an append through one block of a slab
// cannot reach its neighbour.
func (g GlobalPtr) Slice(lo, hi int) GlobalPtr {
	return GlobalPtr{Rank: g.Rank, Kind: g.Kind, Data: g.Data[lo:hi:hi]}
}

// NewArray allocates n elements of host shared-segment memory with affinity
// to this rank and returns a global pointer to it.
func (r *Rank) NewArray(n int) GlobalPtr {
	return GlobalPtr{Rank: int32(r.ID), Kind: simnet.Host, Data: make([]float64, n)}
}

// NewArrayFrom adopts an already-populated local buffer into this rank's
// shared segment and returns a global pointer to it, so a computed result
// (e.g. an update contribution under the fan-in/fan-both formulations) can
// be published for one-sided gets without a copy. The caller must not write
// to the buffer after publishing it.
func (r *Rank) NewArrayFrom(data []float64) GlobalPtr {
	return GlobalPtr{Rank: int32(r.ID), Kind: simnet.Host, Data: data}
}

// --------------------------------------------------------------- signals ----

// Msg is the runtime's one message: a fixed-size value, the paper's
// signal(ptr, meta). The pointer is implied — ID names an entry of a
// directory both sides share — so a message carries no payload the
// runtime must keep alive, and sending one allocates nothing.
type Msg struct {
	Kind uint8 // what the handler is to do; upcxx does not interpret it
	Back bool  // sweep bit: which pass of a two-pass protocol sent it
	From int32 // sending rank, set by Signal
	ID   int32 // item, block or supernode id
}

// Handler interprets a delivered signal on the target rank, inside its
// Progress call.
type Handler func(r *Rank, m Msg)

// Handle registers the job's one signal handler. Call it before Run; it
// holds for every rank and every later Run on this runtime.
func (rt *Runtime) Handle(h Handler) { rt.handler = h }

// Signal enqueues m for the target rank's handler, run the next time the
// target calls Progress(). This is the paper's producer-side notification
// (Fig. 4 step 1): fire-and-forget, no reply. Under fault injection the
// message may be dropped (never enqueued), duplicated (enqueued twice —
// handlers must be idempotent), or delayed (held until later Progress
// calls); the sender is charged the wire latency of a 64-byte active
// message in every case, as it would be on a real NIC.
func (r *Rank) Signal(target int, m Msg) {
	rt := r.rt
	if rt.ShouldAbort() {
		rt.met.droppedAbort.Inc()
		return
	}
	rt.met.signalsSent.Inc()
	r.Charge(rt.net.Time(simnet.PathHostHost, 64, rt.Node(r.ID) == rt.Node(target)))
	inj := rt.cfg.Faults
	if inj.DropSignal(r.ID) {
		rt.met.droppedSignals.Inc()
		rt.traceFault(int32(r.ID), "fault:drop-signal", fmt.Sprintf("to=%d", target))
		return
	}
	copies := 1
	if inj.DupSignal(r.ID) {
		copies = 2
		rt.met.dupSignals.Inc()
		rt.traceFault(int32(r.ID), "fault:dup-signal", fmt.Sprintf("to=%d", target))
	}
	delay := inj.DelaySignalTicks(r.ID)
	if delay > 0 {
		rt.met.delayedSignals.Inc()
		rt.traceFault(int32(r.ID), "fault:delay-signal", fmt.Sprintf("to=%d ticks=%d", target, delay))
	}
	m.From = int32(r.ID)
	r.enqueued.Add(int64(copies))
	t := rt.ranks[target]
	t.qmu.Lock()
	for i := 0; i < copies; i++ {
		if delay > 0 {
			t.delayq = append(t.delayq, delayedMsg{m: m, ticks: delay})
		} else {
			t.inq = append(t.inq, m)
		}
	}
	t.qmu.Unlock()
}

// Progress hands every signal queued on this rank to the handler (Fig. 4
// steps 2–4) and returns how many it handled. It also ages injector-delayed
// messages (each Progress call is one tick) and serves as the injection
// point for rank-stall windows, which freeze the rank in real time the way
// an OS scheduler hiccup or congested progress thread would.
//
// Handlers run serialized: concurrent Progress calls queue behind one
// another, so a handler may treat itself as the only code running on the
// rank's progress stream (it must still lock any state shared with the
// rank's executor workers). A sender's writes before Signal happen-before
// the handler's reads: the message passes through qmu.
func (r *Rank) Progress() int {
	r.progressMu.Lock()
	defer r.progressMu.Unlock()
	if w := r.rt.cfg.Faults.StallWindow(r.ID); w > 0 {
		r.rt.met.stalls.Inc()
		r.rt.traceFault(int32(r.ID), "fault:rank-stall", w.String())
		machine.Backoff(w)
		r.Charge(w.Seconds())
	}
	r.qmu.Lock()
	if len(r.delayq) > 0 {
		kept := r.delayq[:0]
		for i := range r.delayq {
			r.delayq[i].ticks--
			if r.delayq[i].ticks <= 0 {
				r.inq = append(r.inq, r.delayq[i].m)
			} else {
				kept = append(kept, r.delayq[i])
			}
		}
		r.delayq = kept
	}
	q := r.inq
	r.inq, r.runq = r.runq[:0], q
	r.qmu.Unlock()
	if v := r.idle.Load(); len(q) > 0 && v&1 == 1 {
		r.idle.CompareAndSwap(v, v+1) // busy: see Idle
	}
	h := r.rt.handler
	for _, m := range q {
		h(r, m)
	}
	r.rt.met.progressIters.Inc()
	if len(q) > 0 {
		r.handled.Add(int64(len(q)))
		r.rt.met.signalsReceived.Add(float64(len(q)))
	}
	return len(q)
}

// Idle marks the rank idle: it has nothing to run until a signal arrives.
// The rank stays idle until its Progress next hands a signal to the
// handler. A rank starts busy.
func (r *Rank) Idle() {
	if v := r.idle.Load(); v&1 == 0 {
		r.idle.CompareAndSwap(v, v+1)
	}
}

// Quiescent reports whether the job is quiescent: every rank is idle and
// every signal enqueued has been handled, so no rank can become busy again
// unless one sends a signal while idle. It takes two collects of the ranks'
// counters and reports true only if they agree. The counters only grow, so
// equal sums mean that no counter moved between its two reads, and the
// collected state held at one instant between the collects.
func (rt *Runtime) Quiescent() bool {
	c, ok := rt.collect()
	if !ok || c.enqueued != c.handled {
		return false
	}
	d, ok := rt.collect()
	return ok && c == d
}

// quiet sums the ranks' quiescence counters.
type quiet struct{ enqueued, handled, idle int64 }

// collect sums the counters of every rank, and reports false at the first
// rank it finds busy.
func (rt *Runtime) collect() (quiet, bool) {
	var c quiet
	for _, r := range rt.ranks {
		v := r.idle.Load()
		if v&1 == 0 {
			return c, false
		}
		c.idle += v
		c.enqueued += r.enqueued.Load()
		c.handled += r.handled.Load()
	}
	return c, true
}

// PendingSignals reports the queued-but-unhandled signal count, including
// injector-delayed messages that have not matured yet.
func (r *Rank) PendingSignals() int {
	r.qmu.Lock()
	defer r.qmu.Unlock()
	return len(r.inq) + len(r.delayq)
}

// traceFault records an instant fault/recovery event when tracing is on.
func (rt *Runtime) traceFault(rank int32, kind, detail string) {
	if tr := rt.cfg.Trace; tr != nil {
		tr.End(rank, kind, tr.Begin(), detail)
	}
}

// -------------------------------------------------------------- RMA ops ----

// ErrTransferFailed is wrapped by the error of a transfer whose bounded
// retry budget was exhausted. It wraps faults.ErrTransient: callers that
// can re-request the data later should; callers that cannot may escalate.
var ErrTransferFailed = fmt.Errorf("upcxx: transfer failed after retries: %w", faults.ErrTransient)

func (r *Rank) account(p simnet.Path, bytes int64, sameNode bool) float64 {
	rt := r.rt
	rt.met.pathTransfers[p].Inc()
	rt.met.pathBytes[p].Add(float64(bytes))
	dt := rt.net.Time(p, bytes, sameNode)
	r.Charge(dt)
	return dt
}

// retryTransfer runs the injector's transfer-fault gauntlet for one RMA
// operation: each failed attempt charges an exponentially growing backoff
// to the rank's virtual clock, and the attempt cap bounds the operation's
// modeled timeout (transferAttempts × doubling transferBackoff). It returns
// the modeled seconds burned on retries and ErrTransferFailed when the
// budget runs out, in which case the caller must not move the data.
func (r *Rank) retryTransfer(kind string) (float64, error) {
	rt := r.rt
	inj := rt.cfg.Faults
	if inj == nil {
		return 0, nil
	}
	var extra float64
	backoff := transferBackoff
	for attempt := 1; ; attempt++ {
		if !inj.TransferFault(r.ID) {
			return extra, nil
		}
		rt.met.transferRetries.Inc()
		rt.traceFault(int32(r.ID), "fault:transfer-retry", fmt.Sprintf("%s attempt=%d", kind, attempt))
		if attempt >= transferAttempts {
			rt.met.transferFailures.Inc()
			rt.traceFault(int32(r.ID), "fault:transfer-timeout", kind)
			return extra, fmt.Errorf("%s: %w", kind, ErrTransferFailed)
		}
		extra += backoff
		backoff *= 2
	}
}

// Rget copies Len elements from a (possibly remote) source into local host
// memory — upcxx::rget, the one-sided pull of Fig. 4 step 5. Transient
// injected faults are retried internally; a non-nil error wraps
// ErrTransferFailed and means the destination was not written.
func (r *Rank) Rget(src GlobalPtr, dst []float64) error {
	if len(dst) != src.Len() {
		panic(fmt.Sprintf("upcxx: Rget length mismatch %d vs %d", len(dst), src.Len()))
	}
	r.rt.met.rgets.Inc()
	extra, err := r.retryTransfer("rget")
	if extra > 0 {
		r.Charge(extra)
	}
	if err != nil {
		return err
	}
	copy(dst, src.Data)
	same := src.Rank == int32(r.ID)
	p := r.rt.net.Classify(src.Kind, simnet.Host, same, r.sameNode(src.Rank))
	bytes := int64(len(dst)) * elemBytes
	sec := extra + r.account(p, bytes, r.sameNode(src.Rank))
	r.rt.met.rgetBytes.Observe(float64(bytes))
	r.rt.met.rgetSeconds.Observe(sec)
	return nil
}

// Copy moves data between any two global pointers regardless of kind or
// affinity — upcxx::copy(), the memory-kinds workhorse (§4.1). With GDR
// enabled a host→remote-device copy is zero-copy; without it the transfer
// stages through host memory, exactly the difference Fig. 5 measures.
// Retry semantics match Rget.
func (r *Rank) Copy(src, dst GlobalPtr) error {
	if src.Len() != dst.Len() {
		panic(fmt.Sprintf("upcxx: Copy length mismatch %d vs %d", src.Len(), dst.Len()))
	}
	r.rt.met.copies.Inc()
	extra, err := r.retryTransfer("copy")
	if extra > 0 {
		r.Charge(extra)
	}
	if err != nil {
		return err
	}
	copy(dst.Data, src.Data)
	bytes := int64(src.Len()) * elemBytes
	sameNode := r.rt.Node(int(src.Rank)) == r.rt.Node(int(dst.Rank))
	switch {
	case src.Rank != dst.Rank:
		r.account(r.rt.net.Classify(src.Kind, dst.Kind, false, sameNode), bytes, sameNode)
	case src.Kind != dst.Kind:
		// Host↔device within one process: PCIe copy.
		r.Charge(r.rt.cfg.Machine.HostDeviceCopyTime(bytes))
	default:
		r.account(simnet.PathLocal, bytes, sameNode)
	}
	return nil
}

func (r *Rank) sameNode(other int32) bool {
	return r.rt.Node(r.ID) == r.rt.Node(int(other))
}

// -------------------------------------------------------------- barrier ----

type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	p       int
	count   int
	gen     int
	aborted bool
}

func newBarrier(p int) *barrier {
	b := &barrier{p: p}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) await(rt *Runtime) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.aborted {
		return ErrAborted
	}
	gen := b.gen
	b.count++
	if b.count == b.p {
		b.count = 0
		b.gen++
		b.cond.Broadcast()
		return nil
	}
	for gen == b.gen && !b.aborted {
		b.cond.Wait()
	}
	if b.aborted {
		return ErrAborted
	}
	return nil
}

func (b *barrier) abort() {
	b.mu.Lock()
	b.aborted = true
	b.cond.Broadcast()
	b.mu.Unlock()
}
