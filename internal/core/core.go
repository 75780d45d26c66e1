// Package core implements symPACK's numeric phase: the asynchronous
// fan-out supernodal Cholesky factorization of paper §3 and the supernodal
// triangular solves, executed over the UPC++-style runtime in
// internal/upcxx with the GPU-offload behaviour of §4.
//
// Each rank owns the blocks the 2D block-cyclic map assigns to it, holds a
// local task queue (LTQ) of those blocks' tasks with dependency counters,
// and a ready task queue (RTQ). Completed diagonal and panel factorizations
// notify consumer ranks with a fixed-size signal naming the item, whose
// global pointer a shared directory holds; consumers poll, pull the data
// with a one-sided get into a slot sized at setup, decrement dependencies,
// and move newly satisfied tasks to the RTQ — the protocol of paper
// Figs. 3–4.
package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"sympack/internal/faults"
	"sympack/internal/gpu"
	"sympack/internal/machine"
	"sympack/internal/matrix"
	"sympack/internal/metrics"
	"sympack/internal/ordering"
	"sympack/internal/symbolic"
	"sympack/internal/trace"
	"sympack/internal/upcxx"
)

// Options configures a factorization.
type Options struct {
	// Ranks is the number of UPC++ processes to simulate (default 1).
	Ranks int
	// Workers is the number of goroutines per rank running ready tasks:
	// the rank's own goroutine, which runs the loop of paper Fig. 3 (poll,
	// then execute a ready task) and serves all of the rank's
	// communication, plus Workers-1 helpers that only execute tasks. 0
	// means the default: the SYMPACK_WORKERS environment variable if set,
	// otherwise GOMAXPROCS/Ranks (at least 1). The factor is bit-identical
	// across worker counts — update contributions are applied in a
	// canonical order regardless of completion interleaving.
	Workers int
	// RanksPerNode controls node locality in the communication model
	// (default: all ranks on one node).
	RanksPerNode int
	// GPUsPerNode enables GPU offload when > 0.
	GPUsPerNode int
	// DeviceCapacity bounds each device's memory in float64 elements
	// (0 = unbounded). Exercises the paper's fallback options.
	DeviceCapacity int64
	// Fallback selects the behaviour on device OOM (§4.2).
	Fallback gpu.FallbackPolicy
	// Thresholds are the per-operation GPU offload sizes; zero value
	// means gpu.DefaultThresholds.
	Thresholds *gpu.Thresholds
	// Machine is the platform cost model; zero value means Perlmutter.
	Machine *machine.Machine
	// Ordering selects the fill-reducing ordering of the direct
	// factorization. The zero value is nested dissection, the Scotch
	// stand-in; every other kind is honoured as given. The IC(k)
	// preconditioner (internal/precond) ignores it and always orders
	// naturally.
	Ordering ordering.Kind
	// Symbolic tunes supernode detection; zero value means
	// symbolic.DefaultOptions.
	Symbolic *symbolic.Options
	// Precision selects the factor's storage format: PrecFP64 (default) or
	// PrecFP32, the mixed-precision mode — float32 storage and wire, fp64
	// arithmetic, rounded once per finalised block (CPU kernels only, half
	// the modeled wire bytes), intended to be paired with SolveRefined's
	// fp64 refinement. When a pivot breaks down under the rounding on a
	// matrix that is SPD in fp64, FactorizeAnalyzed transparently retries
	// in fp64.
	Precision Precision
	// Formulation selects the task formulation: which block's owner
	// computes each update (fan-out — the paper's choice and the default —
	// fan-in, or fan-both). All formulations produce bit-identical factors
	// for a given mapping because contributions are delivered per update
	// and applied in the canonical order; they differ in what travels on
	// the wire and where the update flops land.
	Formulation Formulation
	// Mapping selects the block→process distribution. The default 2D
	// block-cyclic map is the paper's choice (§3.3); the 1D column map is
	// provided to demonstrate the serial bottleneck it avoids, and the
	// subtree map assigns proportional process ranges over the
	// supernodal elimination tree.
	Mapping MappingKind
	// Trace, when non-nil, records every executed task for timeline and
	// load-balance analysis (Chrome trace-event export).
	Trace *trace.Recorder
	// StallTimeout aborts the factorization when no rank completes a task
	// for this long — a watchdog against scheduling deadlocks. The
	// watchdog is always armed; any value ≤ 0 means the 30s default.
	StallTimeout time.Duration
	// Faults, when non-nil and active, enables deterministic fault
	// injection: the plan's seed fixes every drop/dup/delay/transfer/OOM
	// decision, so chaos runs are reproducible. The solve phase reuses the
	// plan through a restricted injector (see SolveDistributed).
	Faults *faults.Plan
	// Context, when non-nil, bounds the factorization (and context-aware
	// solves): when it is canceled or its deadline expires, every rank
	// stops pulling new tasks and the call returns an error wrapping
	// ErrCanceled. Checks happen at task-pull boundaries, so the latency
	// from cancellation to return is one task execution — or, for a
	// subtree task, one supernode of it (its kernels check the context
	// between supernodes), and for an update that holds its target block's
	// turn, that block's chain of deferred updates, which the turn holder
	// computes one after another — not one job.
	// Nil means no externally imposed bound (the stall watchdog still
	// applies). The context is consulted only during the call it
	// configures: the returned Factor's Opt.Context is nil.
	Context context.Context
	// MetricsAddr, when non-empty, serves the live metrics registry over
	// HTTP for the duration of the factorization and afterwards (until
	// Factor.CloseMetrics): GET /metrics returns the Prometheus text
	// exposition of the merged per-rank registries, GET /healthz the JSON
	// health report the stall watchdog would print. Use "127.0.0.1:0" to
	// bind an ephemeral port (see Factor.MetricsAddr).
	MetricsAddr string
}

// MappingKind selects the block distribution; the kinds themselves live in
// internal/symbolic so the DES model shares them.
type MappingKind = symbolic.MappingKind

const (
	// Map2DCyclic is the paper's 2D block-cyclic distribution (default).
	Map2DCyclic = symbolic.Map2DCyclic
	// Map1DCols assigns whole supernode columns cyclically.
	Map1DCols = symbolic.Map1DCols
	// MapSubtree is the proportional subtree-to-process-range mapping.
	MapSubtree = symbolic.MapSubtree
)

// Formulation selects the task formulation (fan-out / fan-in / fan-both);
// shared with internal/symbolic and internal/des.
type Formulation = symbolic.Formulation

const (
	// FanOut computes updates at the target's owner (the paper's §3.2).
	FanOut = symbolic.FanOut
	// FanIn computes updates at the left source operand's owner and ships
	// the contribution to the target.
	FanIn = symbolic.FanIn
	// FanBoth computes updates at the transposed source operand's owner;
	// sources fan out to it and contributions fan in to the target.
	FanBoth = symbolic.FanBoth
)

func (o Options) withDefaults() Options {
	if o.Ranks < 1 {
		o.Ranks = 1
	}
	if o.Workers == 0 {
		if s := os.Getenv("SYMPACK_WORKERS"); s != "" {
			if v, err := strconv.Atoi(s); err == nil && v > 0 {
				o.Workers = v
			}
		}
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0) / o.Ranks
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
	if o.Thresholds == nil {
		t := gpu.DefaultThresholds()
		o.Thresholds = &t
	}
	if o.Machine == nil {
		m := machine.Perlmutter()
		o.Machine = &m
	}
	if o.Symbolic == nil {
		s := symbolic.DefaultOptions()
		o.Symbolic = &s
	}
	if o.StallTimeout <= 0 {
		o.StallTimeout = 30 * time.Second
	}
	return o
}

// OpStats counts kernel invocations split by execution target, the data of
// the paper's Fig. 6.
type OpStats struct {
	CPU [machine.NumOps]int64
	GPU [machine.NumOps]int64
}

// Stats reports what a factorization did that no metric registry holds:
// the run's configuration and clocks, the structure's sizes, and the kernel
// counts rank by rank. Every other count of the run — communication, faults
// and recovery, GPU fallbacks — is a series of Factor.Metrics.
type Stats struct {
	PerRank []OpStats // kernel counts per rank (Fig. 6 plots rank 0)

	// Workers is the per-rank goroutine count the run used (after
	// defaulting), for reports and the workers-scaling experiments.
	Workers int

	Wall         time.Duration // actual wall-clock time of the numeric phase
	ModelSeconds float64       // max over ranks of modeled virtual time

	NnzL       int64
	FactorFlop int64
	Supernodes int
	Blocks     int
	Updates    int
}

// Factor is a completed Cholesky factorization PAPᵀ = LLᵀ.
type Factor struct {
	St   *symbolic.Structure
	Opt  Options
	Data [][]float64 // per global block ID, column-major, ld = block rows

	Stats Stats
	// SolveStats is filled by SolveDistributed (Wall and ModelSeconds of the
	// last solve), which also imports its runtime's registry into Metrics: it
	// mutates the factor and so, unlike Solve, must not run concurrently on
	// one Factor.
	SolveStats Stats

	// Metrics is the job's one registry: the runtime's communication, fault
	// and device series, with every rank's engine registry imported in rank
	// order (counters and histogram buckets summed, peak gauges maxed) and
	// the device, injector and trace projections of the final gather. It is
	// what the metrics endpoint serves once the factorization has returned,
	// and a distributed solve adds its own communication to it. Nil on a
	// factor restored by LoadFactor.
	Metrics *metrics.Registry

	msrv *metrics.Server // live /metrics endpoint; nil unless MetricsAddr was set
	dist *distSolve      // SolveDistributed's reusable state; nil until its first call
}

// MetricsAddr returns the bound address of the metrics endpoint ("" when
// Options.MetricsAddr was empty), with ephemeral ports resolved.
func (f *Factor) MetricsAddr() string {
	if f.msrv == nil {
		return ""
	}
	return f.msrv.Addr()
}

// CloseMetrics shuts down the metrics endpoint, if one is serving.
func (f *Factor) CloseMetrics() error {
	if f.msrv == nil {
		return nil
	}
	err := f.msrv.Close()
	f.msrv = nil
	return err
}

// RunReport assembles the run-report document of this factorization of a
// for the command cmd: problem identity, the configuration the run used,
// its clocks and the snapshot of Metrics. The caller stamps and writes it.
func (f *Factor) RunReport(cmd, matrixName string, a *matrix.SparseSym) *metrics.RunReport {
	st := &f.Stats
	rep := &metrics.RunReport{
		Command:      cmd,
		Matrix:       matrixName,
		N:            a.N,
		Nnz:          int64(a.NnzFull()),
		Ranks:        f.Opt.Ranks,
		Workers:      st.Workers,
		GPUs:         f.Opt.GPUsPerNode,
		WallSeconds:  st.Wall.Seconds(),
		ModelSeconds: st.ModelSeconds,
		Metrics:      f.Metrics.Snapshot().Series,
	}
	if st.ModelSeconds > 0 {
		rep.GFlops = float64(st.FactorFlop) / st.ModelSeconds / 1e9
	}
	return rep
}

// ErrNotPositiveDefinite is re-exported for callers that only import core.
var ErrNotPositiveDefinite = errors.New("core: matrix is not positive definite")

// Factorize computes the sparse Cholesky factorization of the SPD matrix a
// using the fan-out distributed algorithm.
func Factorize(a *matrix.SparseSym, opt Options) (*Factor, error) {
	st, pa, err := Analyze(a, opt)
	if err != nil {
		return nil, err
	}
	return FactorizeAnalyzed(st, pa, opt)
}

// Analyze runs the symbolic phase under opt's analysis settings: the
// ordering opt.Ordering names (nested dissection when zero) and
// symbolic.DefaultOptions unless Symbolic is set. It returns the structure
// and the permuted matrix that FactorizeAnalyzed takes.
func Analyze(a *matrix.SparseSym, opt Options) (*symbolic.Structure, *matrix.SparseSym, error) {
	opt = opt.withDefaults()
	return symbolic.Analyze(a, opt.Ordering, *opt.Symbolic)
}

// FactorizeAnalyzed factors a matrix whose symbolic analysis is already
// available (pa must be the permuted matrix returned by symbolic.Analyze).
// Reusing the analysis across factorizations of same-structure matrices is
// the pattern of the paper's PEXSI use case (§5.3).
//
// Under Options.Precision == PrecFP32, a pivot breakdown
// (ErrNotPositiveDefinite — the float32-rounded blocks may have cancelled a
// Schur complement that is positive in fp64) triggers one transparent retry
// with fp64 storage; the fallback is counted
// on the returned factor's registry as sympack_iter_fp32_fallbacks_total.
// The returned factor's Opt.Context is nil: the context bounds this call
// only.
func FactorizeAnalyzed(st *symbolic.Structure, pa *matrix.SparseSym, opt Options) (*Factor, error) {
	f, err := factorizeAnalyzedOnce(st, pa, opt)
	if err != nil && opt.Precision == PrecFP32 && errors.Is(err, ErrNotPositiveDefinite) {
		opt.Precision = PrecFP64
		f, err = factorizeAnalyzedOnce(st, pa, opt)
		if err == nil {
			f.Metrics.Counter("sympack_iter_fp32_fallbacks_total",
				"factorizations retried in fp64 after fp32 pivot breakdown").Inc()
		}
	}
	if err != nil {
		return nil, err
	}
	f.Opt.Context = nil
	return f, nil
}

func factorizeAnalyzedOnce(st *symbolic.Structure, pa *matrix.SparseSym, opt Options) (*Factor, error) {
	opt = opt.withDefaults()
	if ctx := opt.Context; ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCanceled, err)
		}
	}
	tg := symbolic.BuildTaskGraph(st)
	m2d := symbolic.NewBlockMap(opt.Mapping, opt.Ranks, st)

	inj := newInjector(opt)
	rt, err := newRuntime(opt, inj)
	if err != nil {
		return nil, err
	}

	f := &Factor{St: st, Opt: opt, Data: make([][]float64, len(st.Blocks))}
	f.Stats.PerRank = make([]OpStats, opt.Ranks)
	f.Stats.Workers = opt.Workers
	f.Stats.NnzL = st.NnzL
	f.Stats.FactorFlop = st.FactorFlop
	f.Stats.Supernodes = st.NumSupernodes()
	f.Stats.Blocks = st.NumBlocks()
	f.Stats.Updates = len(tg.Updates)

	// The item directory covers blocks and — under contribution-delivering
	// formulations — one slot per update for the computed contribution
	// (item id = nBlocks + update index). Both ride the same signal / poll
	// / Rget / re-request protocol.
	dir := make([]upcxx.GlobalPtr, opt.Formulation.ItemCount(tg))
	led := &ledger{engines: make([]*engine, opt.Ranks), rt: rt, inj: inj, tr: opt.Trace}

	var progress atomic.Int64
	stopWatch := startWatchdog(rt, &progress, opt.StallTimeout, func() error {
		rep := led.health()
		err := fmt.Errorf("no task completed for %v; %s", opt.StallTimeout, rep)
		if rep.Waiting() && rep.ReRequested() {
			// Ranks still owe source blocks after exercising the
			// re-request protocol: announcements are irrecoverably lost.
			err = fmt.Errorf("%w: %w", ErrLostSignal, err)
		}
		return err
	})
	defer stopWatch()

	// The opt-in observability endpoint serves the ledger's gather while the
	// factorization runs and Factor.Metrics itself afterwards, until the
	// caller invokes Factor.CloseMetrics.
	var msrv *metrics.Server
	if opt.MetricsAddr != "" {
		msrv, err = metrics.Serve(opt.MetricsAddr,
			func() metrics.Snapshot { return led.gather(false).Snapshot() },
			func() (any, bool) {
				// An aborting job is not healthy: probes see 503 with
				// the diagnosis body as soon as the first rank fails.
				return led.health(), !rt.ShouldAbort()
			})
		if err != nil {
			return nil, fmt.Errorf("core: metrics endpoint: %w", err)
		}
	}

	start := machine.WallNow()
	// Rank r publishes its engine before the barrier that precedes every
	// signal, and only rank r's Progress runs the handler for r.
	rt.Handle(func(r *upcxx.Rank, m upcxx.Msg) { led.engines[r.ID].handle(m) })
	err = rt.Run(func(r *upcxx.Rank) {
		e := newEngine(r, st, tg, pa, m2d, &opt, dir)
		e.progress = &progress
		led.publish(e)
		e.setup()
		if err := r.Barrier(); err != nil {
			return
		}
		// Every rank has counted its tasks at setup, subtree tasks as one
		// each, so past the barrier the job-wide total is final.
		total := led.tasks()
		e.run()
		// A rank that finishes early must keep handling signals until
		// every rank is done: consumers whose announcements were lost
		// direct re-requests at this rank.
		e.drainUntil(&progress, total)
	})
	f.Stats.Wall = machine.WallSince(start)
	if err != nil {
		if msrv != nil {
			msrv.Close()
		}
		return nil, err
	}
	f.Metrics = led.gather(true)
	f.msrv = msrv
	for _, e := range led.engines {
		f.Stats.PerRank[e.r.ID] = e.opStats()
		if s := e.r.Elapsed(); s > f.Stats.ModelSeconds {
			f.Stats.ModelSeconds = s
		}
		for bid, data := range e.owned {
			if data != nil {
				f.Data[bid] = data
			}
		}
	}
	// Every block must have been produced.
	for bid := range f.Data {
		if f.Data[bid] == nil {
			f.CloseMetrics()
			return nil, fmt.Errorf("core: internal: block %d never factored", bid)
		}
	}
	return f, nil
}

// startWatchdog monitors a progress counter and fails the runtime when it
// stalls for longer than `timeout` (positive: Options.withDefaults
// resolves the default). It returns a stop function. The diag callback
// builds the diagnosis error at trip time; it is wrapped in ErrStalled, so
// a diag may add further sentinel errors (ErrLostSignal) for callers to
// branch on. Engines publish health through atomic mirrors, so the snapshot
// is race-free even mid-run.
func startWatchdog(rt *upcxx.Runtime, progress *atomic.Int64, timeout time.Duration, diag func() error) func() {
	done := make(chan struct{})
	go func() {
		last := progress.Load()
		ticker := machine.NewWallTicker(timeout)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				cur := progress.Load()
				if cur == last {
					rt.Fail(fmt.Errorf("%w: %w", ErrStalled, diag()))
					return
				}
				last = cur
			}
		}
	}()
	return func() { close(done) }
}

// newRuntime builds the simulated job a factorization or a distributed solve
// runs on from the options the two share. The solve issues no transfers and
// no device allocations, so the element width and device capacity only
// matter to the factorization.
func newRuntime(opt Options, inj *faults.Injector) (*upcxx.Runtime, error) {
	return upcxx.NewRuntime(upcxx.Config{
		Ranks:          opt.Ranks,
		RanksPerNode:   opt.RanksPerNode,
		GPUsPerNode:    opt.GPUsPerNode,
		Machine:        *opt.Machine,
		DeviceCapacity: opt.DeviceCapacity,
		Faults:         inj,
		Trace:          opt.Trace,
		ElemBytes:      opt.Precision.elemBytes(),
	})
}

// newInjector builds the factorization's fault injector, or nil when the
// plan is absent or inactive. The actor count covers both ranks and devices
// so every decision stream is independent.
func newInjector(opt Options) *faults.Injector {
	if opt.Faults == nil || !opt.Faults.Active() {
		return nil
	}
	rpn := opt.RanksPerNode
	if rpn <= 0 {
		rpn = opt.Ranks
	}
	nodes := (opt.Ranks + rpn - 1) / rpn
	actors := opt.Ranks
	if d := nodes * opt.GPUsPerNode; d > actors {
		actors = d
	}
	return faults.New(*opt.Faults, actors)
}

// ErrStalled is returned when the watchdog detects a scheduling deadlock.
var ErrStalled = errors.New("core: factorization stalled")

// blockDims returns (rows, cols) of a block's dense storage.
func blockDims(st *symbolic.Structure, b *symbolic.Block) (int, int) {
	return int(b.NRows), st.Snodes[b.Snode].NCols()
}

// L returns the factor value at global (permuted) position (i, j), for
// tests and diagnostics; O(log) lookups.
func (f *Factor) L(i, j int32) float64 {
	if i < j {
		return 0
	}
	st := f.St
	k := st.SnOf[j]
	rsn := st.SnOf[i]
	bid := st.FindBlock(rsn, k)
	if bid < 0 {
		return 0
	}
	b := &st.Blocks[bid]
	sn := &st.Snodes[k]
	rows := sn.Rows[b.RowOff : b.RowOff+b.NRows]
	// binary search row i
	lo, hi := 0, len(rows)
	for lo < hi {
		mid := (lo + hi) / 2
		if rows[mid] < i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(rows) || rows[lo] != i {
		return 0
	}
	col := int(j - sn.FirstCol)
	return f.Data[bid][lo+col*int(b.NRows)]
}
