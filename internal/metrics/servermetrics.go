package metrics

// ServerMetrics is sympackd's instrumentation bundle: the
// sympack_server_* namespace covering the robustness envelope around each
// request — admission queue depth and shedding, deadline misses and
// cancellations, cache economics and per-endpoint request latencies.
// Unlike the per-rank solver bundles these series describe one process
// and are never reduced across ranks; the latency histograms observe wall
// seconds (the documented exception to the package determinism contract —
// a service's p99 is a wall-clock fact).
//
// Every family is registered eagerly so /metrics exposes the full
// inventory at zero from the first scrape; hot paths touch only the
// cached handles plus a per-(endpoint, code) register-or-lookup for the
// request counter, which is a map read under the registry lock —
// negligible next to HTTP handling.
type ServerMetrics struct {
	reg *Registry

	// Admission control.
	QueueDepth *Gauge   // requests waiting for an inflight slot
	QueuePeak  *Gauge   // high-water queue depth
	Inflight   *Gauge   // requests holding a slot
	Shed       *Counter // requests rejected 429 at a full queue
	Draining   *Gauge   // 1 while the server refuses new work

	// Deadlines and cancellations.
	Canceled     *Counter // requests whose context was canceled mid-flight
	DeadlineMiss *Counter // requests that exceeded their deadline (504)

	// Pattern cache.
	CacheBytes     *Gauge
	CacheEntries   *Gauge
	CachePinned    *Gauge // entries (evicted or live) still pinned by requests
	CacheHits      *Counter
	CacheMisses    *Counter
	CacheEvictions *Counter
}

// NewServerMetrics registers the server families on reg and returns the
// bundle.
func NewServerMetrics(reg *Registry) *ServerMetrics {
	m := &ServerMetrics{reg: reg}
	m.QueueDepth = reg.Gauge("sympack_server_queue_depth",
		"admission-queue occupancy", MergeSum)
	m.QueuePeak = reg.Gauge("sympack_server_queue_peak",
		"high-water admission-queue occupancy", MergeMax)
	m.Inflight = reg.Gauge("sympack_server_inflight",
		"requests currently holding an admission slot", MergeSum)
	m.Shed = reg.Counter("sympack_server_shed_total",
		"requests shed with 429 at a saturated admission queue")
	m.Draining = reg.Gauge("sympack_server_draining",
		"1 while the server is draining (refusing new work)", MergeMax)
	m.Canceled = reg.Counter("sympack_server_canceled_total",
		"requests canceled mid-flight (client gone or chaos-injected)")
	m.DeadlineMiss = reg.Counter("sympack_server_deadline_miss_total",
		"requests that exceeded their deadline and returned 504")
	m.CacheBytes = reg.Gauge("sympack_server_cache_bytes",
		"bytes held by the pattern cache", MergeSum)
	m.CacheEntries = reg.Gauge("sympack_server_cache_entries",
		"entries held by the pattern cache", MergeSum)
	m.CachePinned = reg.Gauge("sympack_server_cache_pinned",
		"cache objects pinned by in-flight requests", MergeSum)
	m.CacheHits = reg.Counter("sympack_server_cache_hits_total",
		"pattern-cache hits")
	m.CacheMisses = reg.Counter("sympack_server_cache_misses_total",
		"pattern-cache misses")
	m.CacheEvictions = reg.Counter("sympack_server_cache_evictions_total",
		"pattern-cache evictions (budget pressure or chaos thrash)")
	// Pre-register the per-endpoint latency and request families so the
	// exposition shape does not depend on which endpoints saw traffic.
	for _, ep := range serverEndpoints {
		m.Latency(ep)
	}
	return m
}

// serverEndpoints is the fixed endpoint vocabulary of the request-scoped
// families (labels beyond it are still accepted — lookups register on
// first use).
var serverEndpoints = []string{"analyze", "factor", "solve", "solvebatch", "solvecg"}

// Request returns the request counter for an (endpoint, HTTP status code)
// pair, registering the series on first use.
func (m *ServerMetrics) Request(endpoint, code string) *Counter {
	return m.reg.Counter("sympack_server_requests_total",
		"requests by endpoint and HTTP status code",
		"endpoint", endpoint, "code", code)
}

// Latency returns the wall-seconds request-latency histogram for an
// endpoint (see the bundle doc for the determinism exception).
func (m *ServerMetrics) Latency(endpoint string) *Histogram {
	return m.reg.Histogram("sympack_server_request_seconds",
		"request wall seconds by endpoint (service telemetry; not part of the determinism contract)",
		SecondsBuckets(), "endpoint", endpoint)
}
