package upcxx

import (
	"strconv"

	"sympack/internal/metrics"
	"sympack/internal/simnet"
)

// rtMetrics holds the handle of every series the runtime counts on: each
// counter is stored once, in the runtime's registry, and a hot path pays a
// handle dereference plus one atomic per event. Histograms observe only
// modeled seconds and payload sizes, never wall time, per the metrics
// package determinism contract.
type rtMetrics struct {
	progressIters   *metrics.Counter
	signalsReceived *metrics.Counter
	rgetBytes       *metrics.Histogram
	rgetSeconds     *metrics.Histogram

	signalsSent  *metrics.Counter
	rgets        *metrics.Counter
	rputs        *metrics.Counter
	copies       *metrics.Counter
	droppedAbort *metrics.Counter // signals sent after abort

	// Fault-injection and recovery counters (zero on a perfect network).
	droppedSignals   *metrics.Counter
	dupSignals       *metrics.Counter
	delayedSignals   *metrics.Counter
	transferRetries  *metrics.Counter
	transferFailures *metrics.Counter
	stalls           *metrics.Counter
	reRequests       *metrics.Counter
	redeliveries     *metrics.Counter

	pathTransfers [6]*metrics.Counter // per simnet.Path
	pathBytes     [6]*metrics.Counter
}

func newRTMetrics(reg *metrics.Registry) *rtMetrics {
	m := &rtMetrics{
		progressIters: reg.Counter("sympack_upcxx_progress_iterations_total",
			"Progress() calls across all ranks"),
		signalsReceived: reg.Counter("sympack_upcxx_signals_received_total",
			"signals handled by Progress() across all ranks"),
		rgetBytes: reg.Histogram("sympack_upcxx_rma_get_bytes",
			"payload size of successful one-sided gets", metrics.BytesBuckets()),
		rgetSeconds: reg.Histogram("sympack_upcxx_rma_get_seconds",
			"modeled duration of successful one-sided gets (retry backoff included)",
			metrics.SecondsBuckets()),

		signalsSent:  reg.Counter("sympack_upcxx_signals_sent_total", "signals sent (paper Fig. 4 step 1)"),
		rgets:        reg.Counter("sympack_upcxx_rma_gets_total", "one-sided gets issued"),
		rputs:        reg.Counter("sympack_upcxx_rma_puts_total", "one-sided puts issued"),
		copies:       reg.Counter("sympack_upcxx_rma_copies_total", "memory-kinds copies issued"),
		droppedAbort: reg.Counter("sympack_upcxx_rpcs_dropped_abort_total", "signals discarded because the job was aborting"),

		droppedSignals:   reg.Counter("sympack_upcxx_signals_dropped_total", "signals discarded by the fault injector"),
		dupSignals:       reg.Counter("sympack_upcxx_signals_duplicated_total", "signals delivered twice by the fault injector"),
		delayedSignals:   reg.Counter("sympack_upcxx_signals_delayed_total", "signals deferred by injected progress-tick delays"),
		transferRetries:  reg.Counter("sympack_upcxx_transfer_retries_total", "transfer attempts that failed and retried"),
		transferFailures: reg.Counter("sympack_upcxx_transfer_failures_total", "transfers whose retry budget ran out"),
		stalls:           reg.Counter("sympack_upcxx_rank_stalls_total", "injected rank-stall windows"),
		reRequests:       reg.Counter("sympack_upcxx_rerequests_total", "consumer re-requests for lost signals"),
		redeliveries:     reg.Counter("sympack_upcxx_redeliveries_total", "producer re-announcements of done blocks"),
	}
	for p := range m.pathTransfers {
		path := simnet.Path(p).String()
		m.pathTransfers[p] = reg.Counter("sympack_upcxx_path_transfers_total",
			"transfers per memory-kinds path", "path", path)
		m.pathBytes[p] = reg.Counter("sympack_upcxx_path_bytes_total",
			"bytes moved per memory-kinds path", "path", path)
	}
	return m
}

// Metrics returns the runtime's registry, the one place the job's
// communication, fault and recovery counters and its devices' allocation
// series are stored. It is job-wide (all ranks count on it) and live: read
// a series with Value while the job runs or after it. A factorization
// hands this registry on as Factor.Metrics once the per-rank registries
// have been imported into it.
func (rt *Runtime) Metrics() *metrics.Registry { return rt.reg }

// CountReRequest and CountRedelivery record the two recovery events of the
// lost-signal protocol, which the engine implements on top of Signal: a
// consumer asking a producer to re-announce an item, and the producer
// doing so.
func (rt *Runtime) CountReRequest()  { rt.met.reRequests.Inc() }
func (rt *Runtime) CountRedelivery() { rt.met.redeliveries.Inc() }

// ExportDevices projects the devices' current state into reg: memory in
// use, accumulated busy seconds and the failed flag are properties of a
// device read at gather time, not events counted as they happen. Each
// gather exports once into a registry that does not hold these series yet,
// so busy seconds are never added twice.
func (rt *Runtime) ExportDevices(reg *metrics.Registry) {
	for _, d := range rt.devices {
		id := strconv.Itoa(d.ID)
		reg.Gauge("sympack_gpu_mem_used_elements",
			"current device memory use in float64 elements", metrics.MergeMax, "device", id).
			Set(float64(d.Used()))
		reg.Counter("sympack_gpu_busy_seconds_total",
			"accumulated modeled kernel seconds per device", "device", id).Add(d.BusySeconds())
		failed := 0.0
		if d.Failed() {
			failed = 1
		}
		reg.Gauge("sympack_gpu_device_failed",
			"1 once the device has gone permanently bad", metrics.MergeMax, "device", id).Set(failed)
	}
}
