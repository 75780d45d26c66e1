package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"sympack/internal/gen"
	"sympack/internal/ordering"
	"sympack/internal/symbolic"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Error("median reordered its argument")
	}
}

// The tail a timing is annotated with is the highest percentile that still
// has at least ten samples beyond it.
func TestTailRule(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n       int
		ok      bool
		pct     float64
		atValue float64
	}{
		{11, false, 0, 0},
		{39, false, 0, 0},   // p75 is rank 30: nine beyond
		{40, true, 75, 30},  // ten beyond
		{99, true, 75, 75},  // p90 is rank 90: nine beyond
		{100, true, 90, 90}, // ten beyond
		{200, true, 95, 190},
		{1000, true, 99, 990},
		{1152, true, 99, 1141}, // serve_sessions' solves: eleven beyond p99
		{10000, true, 99.9, 9990},
	} {
		pct, v, ok := tail(ramp(c.n))
		if ok != c.ok || pct != c.pct || v != c.atValue {
			t.Errorf("tail(n=%d) = p%g %g %v, want p%g %g %v", c.n, pct, v, ok, c.pct, c.atValue, c.ok)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), which
// the acceptance rule for the benchmark's steadiness is written in.
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g, %g, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1.0, 1.2, 1.1, 1.4, 1.3], n=4) == [1.05, 1.2, 1.35]
	q1, q3 = quartiles([]float64{1.0, 1.2, 1.1, 1.4, 1.3})
	if math.Abs(q1-1.05) > 1e-12 || math.Abs(q3-1.35) > 1e-12 {
		t.Errorf("quartiles = %g, %g, want 1.05, 1.35", q1, q3)
	}
	if got := spread([]float64{1.0, 1.2, 1.1, 1.4, 1.3}); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("spread = %g, want 0.25", got)
	}
}

// A span's self time is its duration minus what its children cover, with
// overlapping children counted once and children clipped to the parent.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", StartNS: 0, EndNS: 100, Parent: -1},
		{Name: "a", StartNS: 10, EndNS: 40, Parent: 0},
		{Name: "b", StartNS: 30, EndNS: 60, Parent: 0},   // overlaps a by 10
		{Name: "c", StartNS: 90, EndNS: 120, Parent: 0},  // runs past its parent
		{Name: "a.1", StartNS: 15, EndNS: 25, Parent: 1}, // grandchild: only a's
		{Name: "lone", StartNS: 200, EndNS: 230, Parent: -1},
	}
	want := []int64{100 - 50 - 10, 30 - 10, 30, 30, 10, 30}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	var r *recorder
	r.end(r.begin("w", "x", -1, 0)) // a nil recorder records nothing and does not panic
}

// The replay issues one kernel per task of the fan-out task graph, and its
// flops, taken from blas.Flops*, are the structure's own count.
func TestReplayCensus(t *testing.T) {
	for _, c := range []struct {
		name string
		st   func() (*symbolic.Structure, error)
	}{
		{"flan", func() (*symbolic.Structure, error) {
			st, _, err := symbolic.Analyze(gen.Flan3D(5, 5, 5, 3), ordering.NestedDissection, symbolic.DefaultOptions())
			return st, err
		}},
		{"thermal", func() (*symbolic.Structure, error) {
			st, _, err := symbolic.Analyze(gen.Thermal2D(40, 40, 3, 3), ordering.NestedDissection, symbolic.DefaultOptions())
			return st, err
		}},
	} {
		st, err := c.st()
		if err != nil {
			t.Fatal(err)
		}
		tg := symbolic.BuildTaskGraph(st)
		rp := newReplay(st, tg)
		rp.reset()
		census, err := rp.run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got, want := census.calls(), int64(tg.NumTasks()); got != want {
			t.Errorf("%s: replay issued %d kernels, the task graph has %d tasks", c.name, got, want)
		}
		if census.Potrf != int64(st.NumSupernodes()) || census.Syrk+census.Gemm != int64(len(tg.Updates)) {
			t.Errorf("%s: census %+v does not match %d supernodes, %d updates", c.name, census, st.NumSupernodes(), len(tg.Updates))
		}
		t.Logf("%s: replay flop %d (blas.Flops*) beside Structure.FactorFlop %d; %d computed bytes", c.name, census.Flop, st.FactorFlop, census.Bytes)
		if ratio := float64(census.Flop) / float64(st.FactorFlop); ratio < 0.5 || ratio > 2 {
			t.Errorf("%s: replay flop %d is not the factorization's %d", c.name, census.Flop, st.FactorFlop)
		}
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// owns says whether a workload exercises a per-layer metric; the others
// read 0 on it.
func owns(workload, metric string) bool {
	switch {
	case strings.HasPrefix(metric, "server.") || metric == "serve_rps" || metric == "cold_factor_ms" ||
		metric == "refactor_ms" || metric == "cached_solve_ms":
		return workload == serveName
	case metric == "core.solve_multi_s":
		return workload == "laplace_reuse_pool"
	case metric == "core.solve_dist_s":
		return workload == "laplace_r4"
	case metric == "core.overhead_s":
		return workload == "flan_w1" || workload == "thermal_w1" || workload == serveName
	}
	return true
}

func allNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return names
}

// TestSmoke runs every workload on shrunken inputs, both passes, and holds
// the output to what BENCHMARK.json and bench/README.md promise.
func TestSmoke(t *testing.T) {
	cfg := newConfig(5, 0.05, true)
	res, rec, err := runAll(cfg, allNames(), []bool{false, true})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range allNames() {
		w := res.Workloads[name]
		if w == nil {
			t.Fatalf("%s: no result", name)
		}
		if w.Failed != 0 || w.Attempted == 0 {
			t.Errorf("%s: %d of %d ops failed", name, w.Failed, w.Attempted)
		}
		for _, def := range endToEnd {
			if rd, ok := w.EndToEnd[def.Name]; !ok || !(rd.Value > 0) || rd.Unit != def.Unit {
				t.Errorf("%s: end-to-end %s = %+v, want a value above 0 in %s", name, def.Name, rd, def.Unit)
			}
		}
		for _, def := range perLayer {
			rd, ok := w.PerLayer[def.Name]
			if ok != owns(name, def.Name) {
				t.Errorf("%s: per-layer %s emitted=%v, want %v", name, def.Name, ok, owns(name, def.Name))
			}
			if ok && rd.Unit != def.Unit {
				t.Errorf("%s: %s has unit %q, want %q", name, def.Name, rd.Unit, def.Unit)
			}
		}
		for _, m := range []map[string]reading{w.EndToEnd, w.PerLayer} {
			for k := range m {
				if !metricName.MatchString(k) || unitOf(k) == "" {
					t.Errorf("%s: %q is not a metric the tables name", name, k)
				}
			}
		}
		// The driver's line carries every metric of its table, owned or not.
		for _, traced := range []bool{false, true} {
			line, err := driverLine(w, traced)
			if err != nil {
				t.Fatal(err)
			}
			var got struct {
				Correct   *bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			if err := json.Unmarshal(line, &got); err != nil {
				t.Fatal(err)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if got.Correct == nil || !*got.Correct || got.Attempted < 1 || len(got.Metrics) != len(defs) {
				t.Errorf("%s: driver line %s", name, line)
			}
			for _, def := range defs {
				if m, ok := got.Metrics[def.Name]; !ok || m.Value == nil || m.Unit != def.Unit {
					t.Errorf("%s: driver line lacks %s", name, def.Name)
				}
			}
		}
	}

	// Workers-1, Ranks-1 workloads never signal, get or wait; only the
	// 4-rank workload talks through upcxx.
	for _, name := range []string{"flan_w1", "thermal_w1"} {
		for _, m := range []string{"upcxx.signals_sent", "upcxx.rma_gets", "core.worker_waits"} {
			if v := res.Workloads[name].PerLayer[m].Value; v != 0 {
				t.Errorf("%s: %s = %g, want 0", name, m, v)
			}
		}
	}
	if v := res.Workloads["laplace_r4"].PerLayer["upcxx.signals_sent"].Value; v <= 0 {
		t.Errorf("laplace_r4: upcxx.signals_sent = %g, want > 0", v)
	}
	if v := res.Workloads["laplace_reuse_pool"].PerLayer["upcxx.signals_sent"].Value; v != 0 {
		t.Errorf("laplace_reuse_pool: upcxx.signals_sent = %g, want 0", v)
	}

	// Spans: every span closed, inside its parent's op, and the file loads.
	for i, s := range rec.spans {
		if s.EndNS < s.StartNS || s.Parent >= i {
			t.Fatalf("span %d %+v is open or points forward", i, s)
		}
		if s.Parent >= 0 && (rec.spans[s.Parent].OpID != s.OpID || rec.spans[s.Parent].Workload != s.Workload) {
			t.Errorf("span %d %q does not share its parent's op", i, s.Name)
		}
	}
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := writeChromeTrace(path, rec.spans); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct{ TraceEvents []map[string]any }
	if err := json.Unmarshal(buf, &trace); err != nil || len(trace.TraceEvents) != len(rec.spans) {
		t.Errorf("span file: %v, %d events for %d spans", err, len(trace.TraceEvents), len(rec.spans))
	}

	// Same seed, same structure: the counts that do not depend on the
	// schedule repeat exactly. (core.updates_parked, core.rtq_peak and
	// upcxx.progress_iterations depend on it and are only reported.)
	again, _, err := runAll(cfg, allNames(), []bool{true})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range allNames() {
		for _, m := range []string{
			"symbolic.supernodes", "symbolic.blocks", "symbolic.updates", "symbolic.nnz_l", "symbolic.factor_flop",
			"blas.potrf_calls", "blas.trsm_calls", "blas.syrk_calls", "blas.gemm_calls",
			"core.tasks_total", "core.dep_decrements",
		} {
			a, b := res.Workloads[name].PerLayer[m].Value, again.Workloads[name].PerLayer[m].Value
			if a != b || a == 0 {
				t.Errorf("%s: %s = %g then %g at one seed", name, m, a, b)
			}
		}
	}
}

// BENCHMARK.json is written by hand; it must say what the tables say.
func TestManifestMatchesTables(t *testing.T) {
	type entry struct {
		Name   string   `json:"name"`
		Why    string   `json:"why,omitempty"`
		Unit   string   `json:"unit,omitempty"`
		Better string   `json:"better,omitempty"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var want struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}
	want.Command, want.Paths, want.RunSeconds = []string{"bash", "bench/run.sh"}, []string{"bench"}, 12
	for _, w := range workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
		want.Workloads = append(want.Workloads, entry{Name: w.Name, Why: w.Why})
	}
	for _, m := range endToEnd {
		b := m.Bound
		if b <= 0 || b > 0.25 {
			t.Errorf("%s: bound %g", m.Name, b)
		}
		want.EndToEnd = append(want.EndToEnd, entry{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: &b})
	}
	seen := map[string]bool{}
	for _, m := range perLayer {
		want.PerLayer = append(want.PerLayer, entry{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	for _, tab := range [][]entry{want.Workloads, want.EndToEnd, want.PerLayer} {
		for _, e := range tab {
			if seen[e.Name] || !metricName.MatchString(e.Name) {
				t.Errorf("name %q is repeated or malformed", e.Name)
			}
			seen[e.Name] = true
		}
	}
	wantJSON, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatalf("%v\nthe tables ask for:\n%s", err, wantJSON)
	}
	var a, b any
	if err := json.Unmarshal(got, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(wantJSON, &b); err != nil {
		t.Fatal(err)
	}
	ga, _ := json.Marshal(a)
	gb, _ := json.Marshal(b)
	if !bytes.Equal(ga, gb) {
		t.Errorf("BENCHMARK.json differs from the tables, which ask for:\n%s", wantJSON)
	}
}

// -compare gates on the end-to-end bounds, in the direction each metric is
// better, and takes a set's value as the median across its runs.
func TestCompare(t *testing.T) {
	write := func(dir, file string, solution, ops, layer float64) {
		t.Helper()
		r := &runResult{Schema: resultSchema, Host: describeHost(), Workloads: map[string]*workloadResult{
			"flan_w1": {
				EndToEnd: map[string]reading{"solution_s": {Value: solution, Unit: "s"}, "ops_per_s": {Value: ops, Unit: "1/s"}},
				PerLayer: map[string]reading{"core.factor_s": {Value: layer, Unit: "s"}},
			},
		}}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := writeResult(filepath.Join(dir, file), r); err != nil {
			t.Fatal(err)
		}
	}
	root := t.TempDir()
	old, same, slow, fewer := filepath.Join(root, "old"), filepath.Join(root, "same"), filepath.Join(root, "slow"), filepath.Join(root, "fewer")
	for i, v := range []float64{1.00, 1.02, 0.98, 1.30, 0.99} { // one outlier run: the median ignores it
		write(old, string(rune('a'+i))+".json", v, 10, 1)
	}
	var tb, ob float64 // the bounds of solution_s and ops_per_s
	for _, def := range endToEnd {
		switch def.Name {
		case "solution_s":
			tb = def.Bound
		case "ops_per_s":
			ob = def.Bound
		}
	}
	write(same, "a.json", 1+tb-0.01, 10*(1-ob+0.01), 5) // just inside both bounds; the layer metric never gates
	write(slow, "a.json", 1+tb+0.01, 10, 1)             // just outside, on a lower-is-better metric
	write(fewer, "a.json", 1.0, 10*(1-ob-0.01), 1)      // just outside, on a higher-is-better metric
	write(fewer, "b.json", 1.0, 10*(1-ob-0.01), 1)      //
	write(fewer, "c.json", 1.0, 12.0, 1)                // the median is still outside
	for _, c := range []struct {
		dir   string
		worse bool
	}{{same, false}, {slow, true}, {fewer, true}, {old, false}} {
		var out bytes.Buffer
		worse, err := compareSets(&out, old, c.dir)
		if err != nil {
			t.Fatal(err)
		}
		if worse != c.worse {
			t.Errorf("compare(old, %s) worse=%v, want %v\n%s", filepath.Base(c.dir), worse, c.worse, out.String())
		}
	}
	if _, err := compareSets(&bytes.Buffer{}, old, filepath.Join(root, "missing")); err == nil {
		t.Error("compare with a missing set: no error")
	}
}
