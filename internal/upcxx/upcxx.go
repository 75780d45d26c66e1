// Package upcxx is the in-process substitute for the UPC++ PGAS library the
// paper builds on (§3.4, §4.1). It provides the primitives symPACK's
// communication paradigm is written against:
//
//   - ranks with private memory and global pointers carrying affinity;
//   - one-sided RMA (Rget/Rput) that moves data without involving the
//     remote rank's execution stream;
//   - remote procedure calls enqueued on the target and executed when the
//     target calls Progress() — the paper's signal(ptr,meta) notification;
//   - memory kinds: global pointers to device memory allocated from a
//     per-rank device allocator, and a device-aware Copy() that models the
//     zero-copy GPUDirect path (or the staged reference path) between any
//     combination of host and device memories on any ranks.
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
	// Faults, when non-nil, is consulted on every RPC, transfer, and
	// device allocation; nil means a perfect network.
	Faults *faults.Injector
	// Trace, when non-nil, receives instant fault/recovery events so
	// Chrome traces show them alongside task events.
	Trace *trace.Recorder
	// TransferAttempts bounds the retry loop of a transiently failing
	// Rget/Rput/Copy (0 = default 8).
	TransferAttempts int
	// TransferBackoff is the modeled seconds charged for the first retry
	// wait; it doubles per attempt, so TransferAttempts × TransferBackoff
	// defines the per-operation timeout (0 = default 2µs).
	TransferBackoff float64
	// ElemBytes is the modeled width of one transferred element in bytes
	// (0 = 8, the float64 default). Mixed-precision factorizations pass 4:
	// the wire cost model then charges half the bytes per Rget/Rput/Copy,
	// matching an implementation that ships fp32 payloads. Host storage
	// stays []float64 either way — only the byte accounting changes.
	ElemBytes int
}

// elemBytes resolves the configured element width.
func (c *Config) elemBytes() int64 {
	if c.ElemBytes > 0 {
		return int64(c.ElemBytes)
	}
	return 8
}

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

	collOnce sync.Once
	collSt   *collectiveState

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
	if cfg.TransferAttempts <= 0 {
		cfg.TransferAttempts = 8
	}
	if cfg.TransferBackoff <= 0 {
		cfg.TransferBackoff = 2e-6
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
	rt.abortCollectives()
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
// is charge-safe from any of them, while Progress is serialized so RPC
// handlers keep the single-threaded execution guarantee of the real
// library's progress engine.
type Rank struct {
	ID int
	rt *Runtime

	qmu    sync.Mutex
	rpcq   []func(*Rank)
	delayq []delayedRPC // injected-delay holding pen, matured by Progress

	// progressMu serializes Progress so handler execution is
	// single-threaded per rank even if more than one goroutine polls.
	progressMu sync.Mutex

	device *gpu.Device
	clock  machine.Clock
}

// delayedRPC is an enqueued RPC the injector deferred by `ticks` progress
// calls on the target.
type delayedRPC struct {
	fn    func(*Rank)
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

// ResetClock zeroes the rank's virtual clock (between phases).
func (r *Rank) ResetClock() { r.clock.Reset() }

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

// IsNil reports whether the pointer is null.
func (g GlobalPtr) IsNil() bool { return g.Data == nil }

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

// DeviceAlloc allocates n elements on this rank's device via the device
// allocator (upcxx::device_allocator). It returns gpu.ErrOutOfMemory when
// the device is full — the trigger for the solver's fallback options — and
// an error when the job has no devices.
func (r *Rank) DeviceAlloc(n int) (GlobalPtr, *gpu.Buffer, error) {
	if r.device == nil {
		return GlobalPtr{}, nil, errors.New("upcxx: rank has no device")
	}
	buf, err := r.device.Alloc(n)
	if err != nil {
		return GlobalPtr{}, nil, err
	}
	return GlobalPtr{Rank: int32(r.ID), Kind: simnet.Device, Data: buf.Data}, buf, nil
}

// DeviceFree releases a device allocation.
func (r *Rank) DeviceFree(buf *gpu.Buffer) {
	if r.device == nil || buf == nil {
		return
	}
	r.device.Free(buf)
}

// ------------------------------------------------------------- futures ----

// Future represents a (already internally completed) asynchronous
// operation, carrying its modeled duration and, since the runtime tolerates
// injected faults, its completion state. Callers chain work with Then and
// synchronize with Wait, mirroring upcxx::future.
type Future struct {
	seconds float64
	err     error
}

// Wait blocks until the operation is complete (a no-op in-process) and
// returns its modeled duration. Check Err for the completion state.
func (f Future) Wait() float64 { return f.seconds }

// Seconds returns the modeled duration without waiting.
func (f Future) Seconds() float64 { return f.seconds }

// Err returns the operation's failure, if any. A transfer whose retry
// budget ran out reports an error wrapping faults.ErrTransient; its data
// must be treated as not moved.
func (f Future) Err() error { return f.err }

// OK reports whether the operation completed successfully.
func (f Future) OK() bool { return f.err == nil }

// Then runs fn after successful completion and returns the future for
// chaining. A failed future propagates its error without running fn, so
// continuations never observe data a faulted transfer did not deliver.
func (f Future) Then(fn func()) Future {
	if f.err == nil {
		fn()
	}
	return f
}

// FailedFuture returns a future carrying an error, for layers that detect
// failure before issuing the underlying operation.
func FailedFuture(err error) Future { return Future{err: err} }

// ------------------------------------------------------------------ RPC ----

// RPC enqueues fn for execution on the target rank the next time it calls
// Progress(). This is the paper's producer-side notification (Fig. 4 step
// 1): fire-and-forget, no reply. Under fault injection the message may be
// dropped (never enqueued), duplicated (enqueued twice — handlers must be
// idempotent), or delayed (held until later Progress calls); the sender is
// charged the wire latency in every case, as it would be on a real NIC.
func (r *Rank) RPC(target int, fn func(*Rank)) {
	rt := r.rt
	if rt.ShouldAbort() {
		rt.met.droppedAbort.Inc()
		return
	}
	rt.met.signalsSent.Inc()
	// A small active message: charge its latency to the initiator.
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
	t := rt.ranks[target]
	t.qmu.Lock()
	for i := 0; i < copies; i++ {
		if delay > 0 {
			t.delayq = append(t.delayq, delayedRPC{fn: fn, ticks: delay})
		} else {
			t.rpcq = append(t.rpcq, fn)
		}
	}
	t.qmu.Unlock()
}

// Progress executes all RPCs currently queued on this rank (Fig. 4 steps
// 2–4) and returns how many ran. It also ages injector-delayed messages
// (each Progress call is one tick) and serves as the injection point for
// rank-stall windows, which freeze the rank in real time the way an OS
// scheduler hiccup or congested progress thread would.
//
// Handlers run serialized: concurrent Progress calls queue behind one
// another, so RPC closures may treat themselves as the only code running on
// the rank's progress stream (they must still lock any state shared with
// the rank's executor workers).
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
				r.rpcq = append(r.rpcq, r.delayq[i].fn)
			} else {
				kept = append(kept, r.delayq[i])
			}
		}
		r.delayq = kept
	}
	q := r.rpcq
	r.rpcq = nil
	r.qmu.Unlock()
	for _, fn := range q {
		fn(r)
	}
	r.rt.met.progressIters.Inc()
	if len(q) > 0 {
		r.rt.met.signalsReceived.Add(float64(len(q)))
	}
	return len(q)
}

// PendingRPCs reports the queued-but-unexecuted RPC count, including
// injector-delayed messages that have not matured yet.
func (r *Rank) PendingRPCs() int {
	r.qmu.Lock()
	defer r.qmu.Unlock()
	return len(r.rpcq) + len(r.delayq)
}

// traceFault records an instant fault/recovery event when tracing is on.
func (rt *Runtime) traceFault(rank int32, kind, detail string) {
	if tr := rt.cfg.Trace; tr != nil {
		tr.End(rank, kind, tr.Begin(), detail)
	}
}

// -------------------------------------------------------------- RMA ops ----

// ErrTransferFailed is carried by the future of a transfer whose bounded
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
// modeled timeout (TransferAttempts × doubling TransferBackoff). It returns
// the modeled seconds burned on retries and ErrTransferFailed when the
// budget runs out, in which case the caller must not move the data.
func (r *Rank) retryTransfer(kind string) (float64, error) {
	rt := r.rt
	inj := rt.cfg.Faults
	if inj == nil {
		return 0, nil
	}
	var extra float64
	backoff := rt.cfg.TransferBackoff
	for attempt := 1; ; attempt++ {
		if !inj.TransferFault(r.ID) {
			return extra, nil
		}
		rt.met.transferRetries.Inc()
		rt.traceFault(int32(r.ID), "fault:transfer-retry", fmt.Sprintf("%s attempt=%d", kind, attempt))
		if attempt >= rt.cfg.TransferAttempts {
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
// injected faults are retried internally; a future with a non-nil Err means
// the destination was not written.
func (r *Rank) Rget(src GlobalPtr, dst []float64) Future {
	if len(dst) != src.Len() {
		panic(fmt.Sprintf("upcxx: Rget length mismatch %d vs %d", len(dst), src.Len()))
	}
	r.rt.met.rgets.Inc()
	extra, err := r.retryTransfer("rget")
	if extra > 0 {
		r.Charge(extra)
	}
	if err != nil {
		return Future{seconds: extra, err: err}
	}
	copy(dst, src.Data)
	same := src.Rank == int32(r.ID)
	p := r.rt.net.Classify(src.Kind, simnet.Host, same, r.sameNode(src.Rank))
	bytes := int64(len(dst)) * r.rt.cfg.elemBytes()
	sec := extra + r.account(p, bytes, r.sameNode(src.Rank))
	r.rt.met.rgetBytes.Observe(float64(bytes))
	r.rt.met.rgetSeconds.Observe(sec)
	return Future{seconds: sec}
}

// Rput copies local host data into a (possibly remote) destination —
// upcxx::rput. Retry semantics match Rget.
func (r *Rank) Rput(src []float64, dst GlobalPtr) Future {
	if len(src) != dst.Len() {
		panic(fmt.Sprintf("upcxx: Rput length mismatch %d vs %d", len(src), dst.Len()))
	}
	r.rt.met.rputs.Inc()
	extra, err := r.retryTransfer("rput")
	if extra > 0 {
		r.Charge(extra)
	}
	if err != nil {
		return Future{seconds: extra, err: err}
	}
	copy(dst.Data, src)
	same := dst.Rank == int32(r.ID)
	p := r.rt.net.Classify(simnet.Host, dst.Kind, same, r.sameNode(dst.Rank))
	return Future{seconds: extra + r.account(p, int64(len(src))*r.rt.cfg.elemBytes(), r.sameNode(dst.Rank))}
}

// Copy moves data between any two global pointers regardless of kind or
// affinity — upcxx::copy(), the memory-kinds workhorse (§4.1). With GDR
// enabled a host→remote-device copy is zero-copy; without it the transfer
// stages through host memory, exactly the difference Fig. 5 measures.
// Retry semantics match Rget.
func (r *Rank) Copy(src, dst GlobalPtr) Future {
	if src.Len() != dst.Len() {
		panic(fmt.Sprintf("upcxx: Copy length mismatch %d vs %d", src.Len(), dst.Len()))
	}
	r.rt.met.copies.Inc()
	extra, err := r.retryTransfer("copy")
	if extra > 0 {
		r.Charge(extra)
	}
	if err != nil {
		return Future{seconds: extra, err: err}
	}
	copy(dst.Data, src.Data)
	same := src.Rank == dst.Rank
	sameNode := r.rt.Node(int(src.Rank)) == r.rt.Node(int(dst.Rank))
	var p simnet.Path
	if same {
		if src.Kind != dst.Kind {
			// Host↔device within one process: PCIe copy.
			dt := r.rt.cfg.Machine.HostDeviceCopyTime(int64(src.Len()) * r.rt.cfg.elemBytes())
			r.Charge(dt)
			return Future{seconds: extra + dt}
		}
		p = simnet.PathLocal
	} else {
		p = r.rt.net.Classify(src.Kind, dst.Kind, false, sameNode)
	}
	return Future{seconds: extra + r.account(p, int64(src.Len())*r.rt.cfg.elemBytes(), sameNode)}
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
