package metrics

import (
	"math"
	"sort"
)

// Label is one key=value pair on a series.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Series is the JSON-friendly snapshot of one time series. For counters
// and gauges Value carries the reading; for histograms Bounds/Counts/Sum
// do (Counts has one extra trailing slot for the +Inf bucket).
type Series struct {
	Name   string    `json:"name"`
	Help   string    `json:"help,omitempty"`
	Kind   string    `json:"kind"`
	Merge  string    `json:"merge,omitempty"` // "max" for peak gauges; default sum
	Labels []Label   `json:"labels,omitempty"`
	Value  float64   `json:"value,omitempty"`
	Bounds []float64 `json:"bounds,omitempty"`
	Counts []int64   `json:"counts,omitempty"`
	Sum    float64   `json:"sum,omitempty"`
}

// Snapshot is a point-in-time reading of a registry, sorted by
// (name, label values) so iteration, encoding and import order are
// deterministic.
type Snapshot struct {
	Series []Series `json:"series"`
}

// Snapshot reads every series atomically and returns them in sorted
// order. Map iteration collects keys first and sorts them, per
// nondetflow's map-range rule.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for name := range r.fams {
		names = append(names, name)
	}
	fams := r.fams
	r.mu.Unlock()
	sort.Strings(names)

	var snap Snapshot
	for _, name := range names {
		r.mu.Lock()
		f := fams[name]
		r.mu.Unlock()
		f.mu.Lock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := f.series[k]
			se := Series{Name: f.name, Help: f.help, Kind: f.kind.String()}
			if f.kind == KindGauge && f.merge == MergeMax {
				se.Merge = "max"
			}
			for i, v := range s.labels {
				se.Labels = append(se.Labels, Label{Key: f.keys[i], Value: v})
			}
			switch f.kind {
			case KindHistogram:
				se.Bounds = append([]float64(nil), f.bounds...)
				se.Counts = make([]int64, len(s.counts))
				for i := range s.counts {
					se.Counts[i] = s.counts[i].Load()
				}
				se.Sum = math.Float64frombits(s.sumBits.Load())
			default:
				se.Value = s.value()
			}
			snap.Series = append(snap.Series, se)
		}
		f.mu.Unlock()
	}
	return snap
}

// Import folds a snapshot into the registry, creating families and series
// as needed: counters and histograms accumulate, gauges combine per their
// merge mode. It is the one way registries are merged: per-rank views into
// the job's registry (in rank order, which fixes the order histogram sums
// are added in), a solve phase into its factor's.
func (r *Registry) Import(snap Snapshot) {
	for i := range snap.Series {
		se := &snap.Series[i]
		kv := make([]string, 0, 2*len(se.Labels))
		for _, l := range se.Labels {
			kv = append(kv, l.Key, l.Value)
		}
		switch se.Kind {
		case "counter":
			r.Counter(se.Name, se.Help, kv...).Add(se.Value)
		case "gauge":
			mode := MergeSum
			if se.Merge == "max" {
				mode = MergeMax
			}
			g := r.Gauge(se.Name, se.Help, mode, kv...)
			if mode == MergeMax {
				g.SetMax(se.Value)
			} else {
				g.Add(se.Value)
			}
		case "histogram":
			h := r.Histogram(se.Name, se.Help, se.Bounds, kv...)
			for b, n := range se.Counts {
				if b < len(h.s.counts) {
					h.s.counts[b].Add(n)
				}
			}
			h.s.addSum(se.Sum)
		}
	}
}

// Value returns the reading of a counter or gauge series in the snapshot,
// or 0 when absent. Label values are matched in order.
func (s Snapshot) Value(name string, labelValues ...string) float64 {
	for i := range s.Series {
		se := &s.Series[i]
		if se.Name != name || len(se.Labels) != len(labelValues) {
			continue
		}
		ok := true
		for j, l := range se.Labels {
			if l.Value != labelValues[j] {
				ok = false
				break
			}
		}
		if ok {
			return se.Value
		}
	}
	return 0
}
