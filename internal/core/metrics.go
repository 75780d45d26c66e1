package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"sympack/internal/faults"
	"sympack/internal/machine"
	"sympack/internal/metrics"
	"sympack/internal/trace"
	"sympack/internal/upcxx"
)

// coreMetrics is the per-rank instrumentation bundle. Every series is
// registered eagerly in newCoreMetrics — including the GPU families on
// CPU-only runs — so /metrics exposes the full inventory at zero rather
// than a shape that depends on the run.
//
// Hot paths touch only the cached handles (one atomic per event); the
// registry maps are never consulted after construction. Histograms
// observe modeled seconds exclusively, keeping bucket counts
// bit-identical across worker counts; wall-clock-dependent quantities
// (waits, backoffs, re-requests) are plain counters.
type coreMetrics struct {
	reg *metrics.Registry

	// Task execution: counts per (op, cpu|gpu) and modeled seconds per op.
	tasks    [machine.NumOps][2]*metrics.Counter
	taskSecs [machine.NumOps]*metrics.Histogram

	// Queue/scheduler state. rtqDepth/wantedBlocks are live occupancy
	// gauges (summed across ranks), each set where its value changes;
	// rtqPeak is the high-water mark (maxed across ranks). tasksDone is the
	// stall watchdog's progress count (ledger.done).
	rtqDepth     *metrics.Gauge
	rtqPeak      *metrics.Gauge
	wantedBlocks *metrics.Gauge
	tasksTotal   *metrics.Gauge
	tasksDone    *metrics.Gauge

	// Dependency and recovery counters.
	depDecrements *metrics.Counter
	updatesParked *metrics.Counter
	reRequests    *metrics.Counter
	backoffWaits  *metrics.Counter
	workerWaits   *metrics.Counter
	fetchFailures *metrics.Counter

	// GPU offload economics (engine-side; device-side series live in the
	// runtime registry).
	gpuOffloads   [machine.NumOps]*metrics.Counter
	gpuRejections [machine.NumOps]*metrics.Counter
	gpuDemotions  *metrics.Counter
	allocRetries  *metrics.Counter
	oomFallbacks  *metrics.Counter
}

const (
	targetCPU = 0
	targetGPU = 1
)

func newCoreMetrics(reg *metrics.Registry) *coreMetrics {
	m := &coreMetrics{reg: reg}
	for op := 0; op < machine.NumOps; op++ {
		name := machine.Op(op).String()
		m.tasks[op][targetCPU] = reg.Counter("sympack_core_tasks_total",
			"kernels executed by op and target", "op", name, "target", "cpu")
		m.tasks[op][targetGPU] = reg.Counter("sympack_core_tasks_total",
			"kernels executed by op and target", "op", name, "target", "gpu")
		m.taskSecs[op] = reg.Histogram("sympack_core_task_seconds",
			"modeled kernel seconds by op (deterministic across worker counts)",
			metrics.SecondsBuckets(), "op", name)
		m.gpuOffloads[op] = reg.Counter("sympack_gpu_offloads_total",
			"operations admitted to the device by the size threshold", "op", name)
		m.gpuRejections[op] = reg.Counter("sympack_gpu_threshold_rejections_total",
			"operations kept on the CPU by the size threshold", "op", name)
	}
	m.rtqDepth = reg.Gauge("sympack_core_rtq_depth",
		"ready-task queue occupancy", metrics.MergeSum)
	m.rtqPeak = reg.Gauge("sympack_core_rtq_peak",
		"high-water ready-task queue occupancy", metrics.MergeMax)
	m.wantedBlocks = reg.Gauge("sympack_core_wanted_blocks",
		"source blocks still awaited", metrics.MergeSum)
	m.tasksTotal = reg.Gauge("sympack_core_tasks_owned",
		"tasks owned by this rank", metrics.MergeSum)
	m.tasksDone = reg.Gauge("sympack_core_tasks_done",
		"owned tasks completed", metrics.MergeSum)
	m.depDecrements = reg.Counter("sympack_core_dep_decrements_total",
		"dependency-counter decrements")
	m.updatesParked = reg.Counter("sympack_core_updates_parked_total",
		"update and apply tasks held back by their turn in the target block's order: readied by the update before them")
	m.reRequests = reg.Counter("sympack_core_rerequests_total",
		"lost-signal re-requests issued")
	m.backoffWaits = reg.Counter("sympack_core_backoff_waits_total",
		"idle-loop backoff sleeps")
	m.workerWaits = reg.Counter("sympack_core_worker_waits_total",
		"helper-worker waits on an empty ready queue")
	m.fetchFailures = reg.Counter("sympack_core_fetch_failures_total",
		"block fetches whose transfer retry budget ran out")
	m.gpuDemotions = reg.Counter("sympack_gpu_demotions_total",
		"ranks demoted to CPU kernels after device failure")
	m.allocRetries = reg.Counter("sympack_gpu_alloc_retries_total",
		"transient device-allocation retries")
	m.oomFallbacks = reg.Counter("sympack_gpu_oom_fallbacks_total",
		"operations run on the CPU after a failed device allocation")
	return m
}

// chargeCPU accounts one CPU kernel: count, modeled seconds onto the
// rank clock, and the task-duration histogram.
func (e *engine) chargeCPU(op machine.Op, flops int64) {
	dt := e.opt.Machine.CPUTime(flops)
	e.r.Charge(dt)
	e.met.tasks[op][targetCPU].Inc()
	e.met.taskSecs[op].Observe(dt)
}

// noteGPU records a device kernel whose modeled seconds were already
// charged by the caller (copies are accounted separately).
func (e *engine) noteGPU(op machine.Op, dt float64) {
	e.met.tasks[op][targetGPU].Inc()
	e.met.taskSecs[op].Observe(dt)
}

// ledger is the one reader of a factorization's counters. Every event is
// stored once — on the engine registry of the rank it happened on, or on the
// runtime's registry — and gather is the only place those registries are
// merged: it serves /metrics, the fault line of /healthz and of the stall
// watchdog while the job runs, and its last call produces Factor.Metrics.
type ledger struct {
	mu      sync.Mutex
	engines []*engine // slot r is published by rank r before its first task
	rt      *upcxx.Runtime
	inj     *faults.Injector
	tr      *trace.Recorder
	final   *metrics.Registry // the finished job's registry, once gathered

	// finished counts the ranks whose own tasks are done (or that stopped
	// on an abort); the job ends when it reaches the rank count.
	finished atomic.Int64
}

// done returns the job's completed tasks, the sum of the published
// engines' tasks_done gauges: the stall watchdog's progress count.
func (l *ledger) done() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var n int64
	for _, e := range l.engines {
		if e != nil {
			n += int64(e.met.tasksDone.Value())
		}
	}
	return n
}

// publish makes rank r's engine visible to gather and health.
func (l *ledger) publish(e *engine) {
	l.mu.Lock()
	l.engines[e.r.ID] = e
	l.mu.Unlock()
}

// gather merges the job's registries by Import, per-rank registries in rank
// order (so histogram sums are added in one order whatever the schedule
// was), and adds the gather-time projections: device state, the injector's
// tallies and the trace summary. It costs the factorization's modeled clock
// nothing. Mid-run it fills a fresh registry from snapshots that may be torn
// per series; the final gather, after every rank has returned, imports into
// the runtime's own registry — already holding the communication and device
// series — and from then on every reader is handed that registry, so no
// event is counted twice.
func (l *ledger) gather(final bool) *metrics.Registry {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.final != nil {
		return l.final
	}
	g := l.rt.Metrics()
	if !final {
		g = metrics.NewRegistry()
		g.Import(l.rt.Metrics().Snapshot())
	}
	for _, e := range l.engines {
		if e != nil {
			g.Import(e.met.reg.Snapshot())
		}
	}
	l.rt.ExportDevices(g)
	injected := l.inj.Injected()
	for c := faults.Class(0); c < faults.NumClasses; c++ {
		g.Counter("sympack_faults_injected_total",
			"faults injected by class", "class", c.String()).Add(float64(injected[c]))
	}
	if l.tr != nil {
		for _, ks := range l.tr.Summary() {
			g.Counter("sympack_trace_events_total",
				"trace events recorded by kind", "kind", ks.Kind).Add(float64(ks.Count))
		}
	}
	if final {
		l.final = g
	}
	return g
}

// health builds a HealthReport from the engines' metric gauges and the
// fault line of a gather. Gauge reads are single atomic loads, so this is
// safe from the watchdog goroutine and the /healthz handler mid-run;
// unpublished engine slots (nil) are skipped.
func (l *ledger) health() *HealthReport {
	rep := &HealthReport{Faults: FaultSummary(l.gather(false).Snapshot())}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, e := range l.engines {
		if e == nil {
			continue
		}
		rep.Ranks = append(rep.Ranks, RankHealth{
			Rank:            e.r.ID,
			Done:            int(e.met.tasksDone.Value()),
			Total:           int(e.met.tasksTotal.Value()),
			RTQDepth:        int(e.met.rtqDepth.Value()),
			PendingSignals:  e.r.PendingSignals(),
			OutstandingDeps: int(e.met.wantedBlocks.Value()),
			ReRequests:      int64(e.met.reRequests.Value()),
		})
	}
	return rep
}

// faultRows names the series of the fault line: what the injector did to
// the job and the recovery work that answered it.
var faultRows = [...]struct{ label, series string }{
	{"dropped", "sympack_upcxx_signals_dropped_total"},
	{"dup", "sympack_upcxx_signals_duplicated_total"},
	{"delayed", "sympack_upcxx_signals_delayed_total"},
	{"xfer-retries", "sympack_upcxx_transfer_retries_total"},
	{"xfer-failures", "sympack_upcxx_transfer_failures_total"},
	{"stalls", "sympack_upcxx_rank_stalls_total"},
	{"re-requests", "sympack_core_rerequests_total"},
	{"redeliveries", "sympack_upcxx_redeliveries_total"},
	{"alloc-retries", "sympack_gpu_alloc_retries_total"},
	{"gpu-demotions", "sympack_gpu_demotions_total"},
}

// FaultSummary renders the non-zero fault and recovery counters of a
// snapshot as one line, "dropped=2 re-requests=1" — the line the CLIs, the
// stall watchdog and /healthz print. It is "" on a perfect network.
func FaultSummary(snap metrics.Snapshot) string {
	var b strings.Builder
	for _, row := range faultRows {
		if v := int64(snap.Value(row.series)); v != 0 {
			if b.Len() > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%s=%d", row.label, v)
		}
	}
	return b.String()
}
