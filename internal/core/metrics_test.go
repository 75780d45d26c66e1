package core

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"sympack/internal/gen"
	"sympack/internal/machine"
	"sympack/internal/metrics"
)

// TestMergedMetricsMatchPerRankStats ties Stats.PerRank to the merged
// registry: both read the engines' task counters, so the per-op totals must
// agree exactly, and each op's modeled-seconds histogram — observed once
// per kernel, on either target — must hold as many observations as the
// ranks ran kernels of that op.
func TestMergedMetricsMatchPerRankStats(t *testing.T) {
	a := gen.Laplace2D(12, 12)
	for _, ranks := range []int{1, 3, 4} {
		f, err := Factorize(a, Options{Ranks: ranks, RanksPerNode: ranks, GPUsPerNode: 1})
		if err != nil {
			t.Fatal(err)
		}
		if f.Metrics == nil {
			t.Fatal("Factor.Metrics not populated")
		}
		snap := f.Metrics.Snapshot()
		hist := histograms(snap)
		for op := 0; op < machine.NumOps; op++ {
			var cpu, gpu int64
			for r := range f.Stats.PerRank {
				cpu += f.Stats.PerRank[r].CPU[op]
				gpu += f.Stats.PerRank[r].GPU[op]
			}
			name := machine.Op(op).String()
			if got := snap.Value("sympack_core_tasks_total", name, "cpu"); got != float64(cpu) {
				t.Errorf("ranks=%d %s cpu: merged %g, Stats sum %d", ranks, name, got, cpu)
			}
			if got := snap.Value("sympack_core_tasks_total", name, "gpu"); got != float64(gpu) {
				t.Errorf("ranks=%d %s gpu: merged %g, Stats sum %d", ranks, name, got, gpu)
			}
			var observed int64
			for _, c := range hist["sympack_core_task_seconds{op="+name+"}"].Counts {
				observed += c
			}
			if observed != cpu+gpu || observed == 0 {
				t.Errorf("ranks=%d %s: %d kernel durations observed, %d kernels counted", ranks, name, observed, cpu+gpu)
			}
		}
		if peak := snap.Value("sympack_core_rtq_peak"); peak < 1 {
			t.Errorf("ranks=%d: rtq peak %g, want >= 1", ranks, peak)
		}
		if done := snap.Value("sympack_core_tasks_done"); done != snap.Value("sympack_core_tasks_owned") {
			t.Errorf("ranks=%d: tasks done %g != owned %g after completion",
				ranks, done, snap.Value("sympack_core_tasks_owned"))
		}
	}
}

// histograms extracts every histogram series keyed by name+labels.
func histograms(snap metrics.Snapshot) map[string]metrics.Series {
	out := map[string]metrics.Series{}
	for _, se := range snap.Series {
		if se.Kind != "histogram" {
			continue
		}
		k := se.Name
		for _, l := range se.Labels {
			k += "{" + l.Key + "=" + l.Value + "}"
		}
		out[k] = se
	}
	return out
}

// TestHistogramsDeterministicAcrossWorkers is the determinism-contract
// acceptance test: histograms observe only modeled seconds and payload
// sizes, so for a fixed seeded problem the merged bucket counts are
// bit-identical whether each rank runs one worker or four.
func TestHistogramsDeterministicAcrossWorkers(t *testing.T) {
	a := gen.Laplace3D(5, 5, 4)
	run := func(workers int) metrics.Snapshot {
		f, err := Factorize(a, Options{Ranks: 2, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return f.Metrics.Snapshot()
	}
	h1 := histograms(run(1))
	h4 := histograms(run(4))
	if len(h1) == 0 {
		t.Fatal("no histogram series in merged registry")
	}
	if len(h1) != len(h4) {
		t.Fatalf("series sets differ: %d vs %d", len(h1), len(h4))
	}
	for k, a1 := range h1 {
		a4, ok := h4[k]
		if !ok {
			t.Errorf("%s missing from workers=4 run", k)
			continue
		}
		if len(a1.Counts) != len(a4.Counts) {
			t.Errorf("%s: bucket count %d vs %d", k, len(a1.Counts), len(a4.Counts))
			continue
		}
		for b := range a1.Counts {
			if a1.Counts[b] != a4.Counts[b] {
				t.Errorf("%s bucket %d: %d vs %d", k, b, a1.Counts[b], a4.Counts[b])
			}
		}
		// Same multiset of observations, possibly different addition
		// order: sums agree to rounding.
		if d := math.Abs(a1.Sum - a4.Sum); d > 1e-9*(1+math.Abs(a1.Sum)) {
			t.Errorf("%s: sum %g vs %g", k, a1.Sum, a4.Sum)
		}
	}
}

// scrape fetches /metrics and returns the body with its samples keyed the
// way the exposition prints them: name{label="value",...}. The error is the
// transport's (the endpoint is not up, or already closed).
func scrape(t *testing.T, addr string) (string, map[string]float64, error) {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return "", nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != metrics.ContentType {
		t.Errorf("content type %q", ct)
	}
	samples := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		samples[line[:sp]] = v
	}
	return string(body), samples, nil
}

// TestMetricsEndpoint starts the opt-in HTTP listener on an ephemeral
// port and checks the ISSUE acceptance shape: /metrics is a valid
// Prometheus text exposition with at least 20 distinct families spanning
// the core, upcxx, gpu and faults namespaces, and /healthz serves JSON.
// It also pins what the endpoint is once Factorize has returned:
// Factor.Metrics itself — every engine event counted once, scrape after
// scrape.
func TestMetricsEndpoint(t *testing.T) {
	a := gen.Laplace2D(10, 10)
	f, err := Factorize(a, Options{Ranks: 2, MetricsAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer f.CloseMetrics()
	addr := f.MetricsAddr()
	if addr == "" {
		t.Fatal("no metrics address resolved")
	}

	body, got, err := scrape(t, addr)
	if err != nil {
		t.Fatal(err)
	}
	families, samples, err := metrics.ValidateExposition(strings.NewReader(body))
	if err != nil {
		t.Fatalf("invalid exposition: %v", err)
	}
	if families < 20 {
		t.Errorf("%d metric families, want >= 20", families)
	}
	if samples < families {
		t.Errorf("%d samples < %d families", samples, families)
	}
	for _, prefix := range []string{"sympack_core_", "sympack_upcxx_", "sympack_gpu_", "sympack_faults_"} {
		if !strings.Contains(body, prefix) {
			t.Errorf("exposition lacks %s* series", prefix)
		}
	}

	want := map[string]float64{
		"sympack_core_dep_decrements_total": f.Metrics.Value("sympack_core_dep_decrements_total"),
		"sympack_upcxx_signals_sent_total":  f.Metrics.Value("sympack_upcxx_signals_sent_total"),
	}
	for op := 0; op < machine.NumOps; op++ {
		name := machine.Op(op).String()
		for _, target := range []string{"cpu", "gpu"} {
			want[fmt.Sprintf("sympack_core_tasks_total{op=%q,target=%q}", name, target)] =
				f.Metrics.Value("sympack_core_tasks_total", "op", name, "target", target)
		}
	}
	for k, se := range histograms(f.Metrics.Snapshot()) {
		if k == "sympack_core_task_seconds{op=GEMM}" {
			var n int64
			for _, c := range se.Counts {
				n += c
			}
			want[`sympack_core_task_seconds_count{op="GEMM"}`] = float64(n)
		}
	}
	if len(want) != 2+2*machine.NumOps+1 || want["sympack_core_dep_decrements_total"] == 0 {
		t.Fatalf("reference values from Factor.Metrics incomplete: %v", want)
	}
	for k, w := range want {
		if g, ok := got[k]; !ok || g != w {
			t.Errorf("scraped %s = %g (present %v), Factor.Metrics has %g", k, g, ok, w)
		}
	}
	if again, _, _ := scrape(t, addr); again != body {
		t.Error("a second scrape of the finished job differs from the first")
	}

	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hb, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	// A completed (non-aborted) factorization is ready: 200, JSON body.
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status = %d, want 200 on a healthy job", resp.StatusCode)
	}
	var health any
	if err := json.Unmarshal(hb, &health); err != nil {
		t.Fatalf("healthz not JSON: %v\n%s", err, hb)
	}

	if err := f.CloseMetrics(); err != nil {
		t.Errorf("CloseMetrics: %v", err)
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Error("endpoint still serving after CloseMetrics")
	}
}

// TestMetricsEndpointDuringRun scrapes /metrics and /healthz from another
// goroutine for as long as a factorization runs — the live gather racing the
// engines' updates, the ranks publishing themselves and the final gather —
// and checks the ledger's promise at every instant: a valid exposition in
// which a counter never runs backwards and never exceeds what the finished
// job's registry holds. Run it under -race.
func TestMetricsEndpointDuringRun(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	type result struct {
		f   *Factor
		err error
	}
	done := make(chan result, 1)
	go func() {
		f, err := Factorize(gen.Laplace3D(12, 12, 12), Options{Ranks: 4, Workers: 2, MetricsAddr: addr})
		done <- result{f, err}
	}()

	const name = "sympack_core_dep_decrements_total"
	var last float64
	scrapes := 0
	check := func() {
		body, samples, err := scrape(t, addr)
		if err != nil {
			return // endpoint not up yet
		}
		if _, _, err := metrics.ValidateExposition(strings.NewReader(body)); err != nil {
			t.Errorf("scrape %d: invalid exposition: %v", scrapes, err)
		}
		if got := samples[name]; got < last {
			t.Errorf("scrape %d: %s ran backwards, %g after %g", scrapes, name, got, last)
		} else {
			last = got
		}
		scrapes++
		if resp, err := http.Get("http://" + addr + "/healthz"); err == nil {
			resp.Body.Close()
		}
	}
	var res result
	for running := true; running; {
		select {
		case res = <-done:
			running = false
		default:
			check()
		}
	}
	if res.err != nil {
		t.Fatal(res.err)
	}
	defer res.f.CloseMetrics()
	check()
	if final := res.f.Metrics.Value(name); last != final || final == 0 {
		t.Errorf("last scrape read %g, Factor.Metrics holds %g", last, final)
	}
	t.Logf("%d scrapes", scrapes)
}
