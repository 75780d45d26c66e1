package core

import (
	"sync"

	"sympack/internal/faults"
	"sympack/internal/machine"
	"sympack/internal/metrics"
	"sympack/internal/trace"
	"sympack/internal/upcxx"
)

// coreMetrics is the per-rank instrumentation bundle. Every series is
// registered eagerly in newCoreMetrics — including the GPU families on
// CPU-only runs — so all ranks hold identically laid-out registries,
// which is the precondition for the element-wise cross-rank reduction
// (upcxx.Rank.ReduceSnapshot), and so /metrics exposes the full inventory
// at zero rather than a shape that depends on the run.
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

	// Queue/scheduler state. rtqDepth/inboxDepth/wantedBlocks are live
	// occupancy gauges (summed across ranks); rtqPeak is the high-water
	// mark (maxed across ranks). tasksTotal/tasksDone double as the
	// watchdog's health mirror.
	rtqDepth     *metrics.Gauge
	rtqPeak      *metrics.Gauge
	inboxDepth   *metrics.Gauge
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
	cancelChecks  *metrics.Counter

	// GPU offload economics (engine-side; device-side series live in the
	// runtime registry).
	gpuOffloads   [machine.NumOps]*metrics.Counter
	gpuRejections [machine.NumOps]*metrics.Counter
	gpuDemotions  *metrics.Counter
	allocRetries  *metrics.Counter
	oomFallbacks  *metrics.Counter

	// fp32Demotions counts offloads the size threshold would have admitted
	// that ran on the CPU instead because Options.Precision == PrecFP32
	// keeps every kernel off the fp64-only device model (part of the
	// sympack_iter_* mixed-precision namespace; the companion fp32-fallback
	// counter is job-level and lives on the merged registry).
	fp32Demotions *metrics.Counter
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
	m.inboxDepth = reg.Gauge("sympack_core_inbox_depth",
		"announced-but-unfetched signal count", metrics.MergeSum)
	m.wantedBlocks = reg.Gauge("sympack_core_wanted_blocks",
		"source blocks still awaited", metrics.MergeSum)
	m.tasksTotal = reg.Gauge("sympack_core_tasks_owned",
		"tasks owned by this rank", metrics.MergeSum)
	m.tasksDone = reg.Gauge("sympack_core_tasks_done",
		"owned tasks completed", metrics.MergeSum)
	m.depDecrements = reg.Counter("sympack_core_dep_decrements_total",
		"dependency-counter decrements")
	m.updatesParked = reg.Counter("sympack_core_updates_parked_total",
		"update contributions parked for ordered application")
	m.reRequests = reg.Counter("sympack_core_rerequests_total",
		"lost-signal re-requests issued")
	m.backoffWaits = reg.Counter("sympack_core_backoff_waits_total",
		"idle-loop backoff sleeps")
	m.workerWaits = reg.Counter("sympack_core_worker_waits_total",
		"helper-worker waits on an empty ready queue")
	m.fetchFailures = reg.Counter("sympack_core_fetch_failures_total",
		"block fetches whose transfer retry budget ran out")
	m.cancelChecks = reg.Counter("sympack_core_cancel_detections_total",
		"scheduling loops that observed a canceled context and stopped")
	m.gpuDemotions = reg.Counter("sympack_gpu_demotions_total",
		"ranks demoted to CPU kernels after device failure")
	m.allocRetries = reg.Counter("sympack_gpu_alloc_retries_total",
		"transient device-allocation retries")
	m.oomFallbacks = reg.Counter("sympack_gpu_oom_fallbacks_total",
		"operations run on the CPU after a failed device allocation")
	m.fp32Demotions = reg.Counter("sympack_iter_fp32_demotions_total",
		"GPU-eligible kernels kept on the CPU by Precision=fp32")
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

// exportJob projects job-level state — runtime communication counters,
// device occupancy, injector tallies and the trace event summary — into
// reg. Callers pass a registry that does not yet hold these families
// (fresh at live-gather time, the final merged registry once), so the
// export never double-counts.
func exportJob(reg *metrics.Registry, rt *upcxx.Runtime, inj *faults.Injector, tr *trace.Recorder) {
	rt.ExportStats(reg)
	injected := inj.Injected()
	for c := faults.Class(0); c < faults.NumClasses; c++ {
		reg.Counter("sympack_faults_injected_total",
			"faults injected by class", "class", c.String()).Add(float64(injected[c]))
	}
	if tr != nil {
		for _, ks := range tr.Summary() {
			reg.Counter("sympack_trace_events_total",
				"trace events recorded by kind", "kind", ks.Kind).Add(float64(ks.Count))
		}
	}
}

// faultStatsFrom reads the FaultStats projection out of a registry
// holding the exported runtime and per-rank counters — the single path
// behind Stats.Faults and the health report since the metrics subsystem
// became the source of truth.
func faultStatsFrom(reg *metrics.Registry) FaultStats {
	v := func(name string) int64 { return int64(reg.Value(name)) }
	return FaultStats{
		DroppedSignals:   v("sympack_upcxx_signals_dropped_total"),
		DupSignals:       v("sympack_upcxx_signals_duplicated_total"),
		DelayedSignals:   v("sympack_upcxx_signals_delayed_total"),
		TransferRetries:  v("sympack_upcxx_transfer_retries_total"),
		TransferFailures: v("sympack_upcxx_transfer_failures_total"),
		Stalls:           v("sympack_upcxx_rank_stalls_total"),
		ReRequests:       v("sympack_upcxx_rerequests_total"),
		Redeliveries:     v("sympack_upcxx_redeliveries_total"),
		AllocRetries:     v("sympack_gpu_alloc_retries_total"),
		DeviceDemotions:  v("sympack_gpu_demotions_total"),
	}
}

// runtimeFaultStats folds the runtime's counters into FaultStats through
// a scratch registry (per-rank alloc-retry/demotion counters are added by
// the caller where engines are in scope).
func runtimeFaultStats(rt *upcxx.Runtime) FaultStats {
	reg := metrics.NewRegistry()
	rt.ExportStats(reg)
	return faultStatsFrom(reg)
}

// gatherLive merges the current view of a running (or finished)
// factorization: every engine's per-rank registry, the runtime's live
// registry, and the export-time projections. It backs the /metrics
// endpoint, so it must be safe concurrently with the run; engines is read
// under mu, and per-series torn reads are acceptable mid-run.
func gatherLive(mu *sync.Mutex, engines []*engine, rt *upcxx.Runtime, inj *faults.Injector, tr *trace.Recorder) metrics.Snapshot {
	g := metrics.NewRegistry()
	mu.Lock()
	for _, e := range engines {
		if e != nil {
			g.Import(e.met.reg.Snapshot())
		}
	}
	mu.Unlock()
	g.Import(rt.Metrics().Snapshot())
	exportJob(g, rt, inj, tr)
	return g.Snapshot()
}
