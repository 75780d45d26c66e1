package metrics

import (
	"math"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "jobs", "kind", "a")
	c.Inc()
	c.Add(2.5)
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %v, want 3.5", got)
	}
	// Same (name, labels) resolves to the same series.
	if got := r.Counter("jobs_total", "jobs", "kind", "a").Value(); got != 3.5 {
		t.Fatalf("re-registered counter = %v, want 3.5", got)
	}
	if got := r.Value("jobs_total", "kind", "a"); got != 3.5 {
		t.Fatalf("Value lookup = %v, want 3.5", got)
	}
	if got := r.Value("jobs_total", "kind", "missing"); got != 0 {
		t.Fatalf("missing series = %v, want 0", got)
	}

	g := r.Gauge("depth", "queue depth", MergeSum)
	g.Set(4)
	g.Add(-1)
	if got := g.Value(); got != 3 {
		t.Fatalf("gauge = %v, want 3", got)
	}
	p := r.Gauge("peak", "peak depth", MergeMax)
	p.SetMax(7)
	p.SetMax(5)
	if got := p.Value(); got != 7 {
		t.Fatalf("peak gauge = %v, want 7", got)
	}
}

func TestCounterNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add did not panic")
		}
	}()
	NewRegistry().Counter("c", "").Add(-1)
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.Gauge("m", "", MergeSum)
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "latency", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 1.0001, 50, 99, 1000} {
		h.Observe(v)
	}
	if got := h.Count(); got != 6 {
		t.Fatalf("count = %d, want 6", got)
	}
	snap := r.Snapshot()
	if len(snap.Series) != 1 {
		t.Fatalf("series = %d, want 1", len(snap.Series))
	}
	se := snap.Series[0]
	// le=1 gets {0.5, 1}; le=10 gets {1.0001}; le=100 gets {50, 99}; +Inf gets {1000}.
	want := []int64{2, 1, 2, 1}
	for i, w := range want {
		if se.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all %v)", i, se.Counts[i], w, se.Counts)
		}
	}
	if math.Abs(se.Sum-1151.5001) > 1e-9 {
		t.Fatalf("sum = %v", se.Sum)
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", b, want)
		}
	}
	if got := len(SecondsBuckets()); got != 22 {
		t.Fatalf("SecondsBuckets len = %d", got)
	}
	if got := len(BytesBuckets()); got != 12 {
		t.Fatalf("BytesBuckets len = %d", got)
	}
}

func TestSnapshotSortedAndMerge(t *testing.T) {
	mk := func(inc float64) Snapshot {
		r := NewRegistry()
		r.Counter("zz_total", "").Add(inc)
		r.Counter("aa_total", "", "op", "b").Add(inc)
		r.Counter("aa_total", "", "op", "a").Add(2 * inc)
		r.Gauge("depth", "", MergeSum).Set(inc)
		r.Gauge("peak", "", MergeMax).Set(10 * inc)
		r.Histogram("h", "", []float64{1, 2}).Observe(inc)
		return r.Snapshot()
	}
	s := mk(1)
	order := []string{"aa_total", "aa_total", "depth", "h", "peak", "zz_total"}
	for i, name := range order {
		if s.Series[i].Name != name {
			t.Fatalf("series %d = %s, want %s", i, s.Series[i].Name, name)
		}
	}
	if s.Series[0].Labels[0].Value != "a" || s.Series[1].Labels[0].Value != "b" {
		t.Fatalf("label order not sorted: %+v", s.Series[:2])
	}

	merged := NewRegistry()
	merged.Import(mk(1))
	merged.Import(mk(2))
	m := merged.Snapshot()
	if got := m.Value("zz_total"); got != 3 {
		t.Fatalf("merged counter = %v, want 3", got)
	}
	if got := m.Value("depth"); got != 3 {
		t.Fatalf("merged sum gauge = %v, want 3", got)
	}
	if got := m.Value("peak"); got != 20 {
		t.Fatalf("merged max gauge = %v, want 20", got)
	}
	for i := range m.Series {
		if m.Series[i].Name == "h" {
			if m.Series[i].Counts[0] != 1 || m.Series[i].Counts[1] != 1 {
				t.Fatalf("merged histogram counts = %v", m.Series[i].Counts)
			}
			if m.Series[i].Sum != 3 {
				t.Fatalf("merged histogram sum = %v", m.Series[i].Sum)
			}
		}
	}
}

// TestConcurrentUpdatesAndSnapshots is the -race acceptance test: handles
// update from many goroutines while snapshots are taken concurrently, and
// the final snapshot is exact.
func TestConcurrentUpdatesAndSnapshots(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total", "")
	g := r.Gauge("depth", "", MergeSum)
	p := r.Gauge("peak", "", MergeMax)
	h := r.Histogram("lat", "", ExpBuckets(1, 2, 10))
	const workers = 8
	const iters = 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				p.SetMax(float64(w*iters + i))
				h.Observe(float64(i%1024) + 0.5)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				_ = r.Snapshot()
			}
		}
	}()
	wg.Wait()
	close(done)
	if got := c.Value(); got != workers*iters {
		t.Fatalf("counter = %v, want %d", got, workers*iters)
	}
	if got := g.Value(); got != 0 {
		t.Fatalf("gauge = %v, want 0", got)
	}
	if got := p.Value(); got != workers*iters-1 {
		t.Fatalf("peak = %v, want %d", got, workers*iters-1)
	}
	if got := h.Count(); got != workers*iters {
		t.Fatalf("histogram count = %d, want %d", got, workers*iters)
	}
}
