// Package metrics is the solver-wide observability layer: a stdlib-only
// typed metric registry (counters, gauges, histograms) with deterministic
// snapshots, a Prometheus text-format (v0.0.4) encoder, one way of merging
// registries (Registry.Import) and a machine-readable run-report schema.
//
// Determinism contract. Histogram bucket bounds are fixed at registration
// (log-spaced, see ExpBuckets), and in the solver namespaces
// (sympack_core_*, sympack_upcxx_*, sympack_gpu_*, sympack_faults_*)
// instrumentation sites observe only modeled quantities — virtual-clock
// seconds from the machine model, byte or element sizes — never host
// wall-clock durations, so bucket counts are bit-identical across worker
// and rank counts for a fixed seeded problem; wall-time quantities may
// only feed counters and gauges there. The sympack_server_* namespace
// (ServerMetrics) is the documented exception: request-latency histograms
// are service telemetry observing wall seconds, are never merged across
// ranks, and make no determinism claim.
// Snapshots emit families and series in sorted (name, label-values)
// order, so the encoded exposition and a merge that imports snapshots in
// rank order are deterministic too; the package sits in nondetflow's
// deterministic scope to keep both properties honest.
//
// Concurrency. Registration takes locks and should happen at setup time;
// Inc/Add/Set/Observe on the returned handles are lock-free atomics and
// safe on hot paths. Snapshot may run concurrently with updates — it
// reads each series atomically (per-series torn reads across a histogram's
// buckets and sum are possible mid-run; final snapshots taken after a
// barrier are exact).
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Kind discriminates the three metric types.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "kind?"
	}
}

// MergeMode says how a gauge combines across ranks when snapshots are
// merged: occupancy-style gauges sum, peak/high-water gauges take the
// maximum. Counters and histograms always sum.
type MergeMode uint8

const (
	MergeSum MergeMode = iota
	MergeMax
)

func (m MergeMode) String() string {
	if m == MergeMax {
		return "max"
	}
	return "sum"
}

// Registry holds metric families keyed by name. The zero value is not
// usable; call NewRegistry.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: map[string]*family{}}
}

// family is one metric name: its metadata plus every labeled series.
type family struct {
	name   string
	help   string
	kind   Kind
	merge  MergeMode
	keys   []string  // label keys, fixed at first registration
	bounds []float64 // histogram upper bounds, ascending; +Inf implicit

	mu     sync.Mutex
	series map[string]*series // keyed by joined label values
}

// series is one (name, label-values) time series. Counters and gauges
// store their float64 value as bits in an atomic word; histograms keep
// per-bucket counts plus the sum of observations.
type series struct {
	labels []string // label values aligned with family.keys

	bits atomic.Uint64 // counter/gauge value, math.Float64bits

	counts  []atomic.Int64 // histogram: counts[i] ≤ bounds[i]; last is +Inf
	sumBits atomic.Uint64  // histogram: sum of observations, float64 bits
}

func (s *series) add(v float64) {
	for {
		old := s.bits.Load()
		if s.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (s *series) setMax(v float64) {
	for {
		old := s.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if s.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func (s *series) value() float64 { return math.Float64frombits(s.bits.Load()) }

func (s *series) addSum(v float64) {
	for {
		old := s.sumBits.Load()
		if s.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Counter is a monotonically non-decreasing value.
type Counter struct{ s *series }

// Inc adds one.
func (c *Counter) Inc() { c.s.add(1) }

// Add adds v, which must be non-negative.
func (c *Counter) Add(v float64) {
	if v < 0 {
		panic("metrics: counter decremented")
	}
	c.s.add(v)
}

// Value returns the current count.
func (c *Counter) Value() float64 { return c.s.value() }

// Gauge is a value that can go up and down. Gauges that participate in
// cross-rank max-merging must stay non-negative (the merge identity is 0).
type Gauge struct{ s *series }

// Set stores v.
func (g *Gauge) Set(v float64) { g.s.bits.Store(math.Float64bits(v)) }

// Add adds v (may be negative).
func (g *Gauge) Add(v float64) { g.s.add(v) }

// SetMax raises the gauge to v if v is larger — the high-water update.
func (g *Gauge) SetMax(v float64) { g.s.setMax(v) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.s.value() }

// Histogram counts observations into fixed cumulative-style buckets.
type Histogram struct {
	s      *series
	bounds []float64
}

// Observe records v into its bucket and the running sum. Only modeled or
// size-like quantities may be observed (see the package determinism
// contract).
func (h *Histogram) Observe(v float64) {
	h.s.counts[sort.SearchFloat64s(h.bounds, v)].Add(1)
	h.s.addSum(v)
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.s.counts {
		n += h.s.counts[i].Load()
	}
	return n
}

// ExpBuckets returns n log-spaced upper bounds start, start·factor,
// start·factor², … — the fixed-bucket scheme that keeps aggregated
// histograms bit-reproducible across worker counts.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("metrics: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// SecondsBuckets spans 1 µs … ~2 s in powers of two — the modeled-time
// range of kernels and transfers.
func SecondsBuckets() []float64 { return ExpBuckets(1e-6, 2, 22) }

// BytesBuckets spans 64 B … ~1 GiB in powers of four — the RMA payload
// range.
func BytesBuckets() []float64 { return ExpBuckets(64, 4, 12) }

// Counter registers (or looks up) a counter series. Labels alternate
// key, value; every series of a family must use the same keys in the
// same order.
func (r *Registry) Counter(name, help string, kv ...string) *Counter {
	return &Counter{s: r.register(name, help, KindCounter, MergeSum, nil, kv)}
}

// Gauge registers (or looks up) a gauge series with the given cross-rank
// merge mode.
func (r *Registry) Gauge(name, help string, merge MergeMode, kv ...string) *Gauge {
	return &Gauge{s: r.register(name, help, KindGauge, merge, nil, kv)}
}

// Histogram registers (or looks up) a histogram series over the given
// ascending upper bounds (the +Inf bucket is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64, kv ...string) *Histogram {
	s := r.register(name, help, KindHistogram, MergeSum, bounds, kv)
	return &Histogram{s: s, bounds: r.famBounds(name)}
}

// Value returns the current value of a counter or gauge series, or 0 when
// the series does not exist — the read-only lookup reporting code uses.
func (r *Registry) Value(name string, kv ...string) float64 {
	_, vals := splitKV(name, kv)
	r.mu.Lock()
	f := r.fams[name]
	r.mu.Unlock()
	if f == nil {
		return 0
	}
	f.mu.Lock()
	s := f.series[labelKey(vals)]
	f.mu.Unlock()
	if s == nil {
		return 0
	}
	return s.value()
}

func (r *Registry) famBounds(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fams[name].bounds
}

func splitKV(name string, kv []string) (keys, vals []string) {
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("metrics: %s: odd label key/value list", name))
	}
	keys = make([]string, 0, len(kv)/2)
	vals = make([]string, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		keys = append(keys, kv[i])
		vals = append(vals, kv[i+1])
	}
	return keys, vals
}

// labelKey joins label values with NUL — values never contain NUL.
func labelKey(vals []string) string {
	k := ""
	for i, v := range vals {
		if i > 0 {
			k += "\x00"
		}
		k += v
	}
	return k
}

func (r *Registry) register(name, help string, kind Kind, merge MergeMode, bounds []float64, kv []string) *series {
	keys, vals := splitKV(name, kv)
	r.mu.Lock()
	f := r.fams[name]
	if f == nil {
		if kind == KindHistogram {
			if len(bounds) == 0 {
				panic(fmt.Sprintf("metrics: histogram %s needs buckets", name))
			}
			if !sort.Float64sAreSorted(bounds) {
				panic(fmt.Sprintf("metrics: histogram %s buckets not ascending", name))
			}
			bounds = append([]float64(nil), bounds...)
		}
		f = &family{
			name: name, help: help, kind: kind, merge: merge,
			keys: keys, bounds: bounds, series: map[string]*series{},
		}
		r.fams[name] = f
	}
	r.mu.Unlock()
	if f.kind != kind {
		panic(fmt.Sprintf("metrics: %s registered as %v, requested as %v", name, f.kind, kind))
	}
	if len(keys) != len(f.keys) {
		panic(fmt.Sprintf("metrics: %s label keys %v do not match %v", name, keys, f.keys))
	}
	for i := range keys {
		if keys[i] != f.keys[i] {
			panic(fmt.Sprintf("metrics: %s label keys %v do not match %v", name, keys, f.keys))
		}
	}
	if kind == KindHistogram && len(bounds) > 0 && len(f.bounds) != len(bounds) {
		panic(fmt.Sprintf("metrics: histogram %s re-registered with different buckets", name))
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	key := labelKey(vals)
	s := f.series[key]
	if s == nil {
		s = &series{labels: vals}
		if kind == KindHistogram {
			s.counts = make([]atomic.Int64, len(f.bounds)+1)
		}
		f.series[key] = s
	}
	return s
}
