// Command loadgen drives a sympackd instance with many concurrent client
// sessions and reports the service's behaviour under pressure: latency
// percentiles, shed rate and the full response-status taxonomy. It is the
// measurement half of the robustness story — sympackd supplies the chaos
// (-chaos/-solver-chaos server side), loadgen supplies the stampede and
// judges the outcome.
//
// Usage:
//
//	loadgen -addr 127.0.0.1:8157 -sessions 64 -requests 8
//	loadgen -addr 127.0.0.1:8157 -sessions 200 -deadline-ms 500 -report auto
//
// Exit status is non-zero when any request ends in an unexpected status:
// 429/499/503/504 are the envelope working as designed, 5xx engine
// failures and transport errors are not.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"sympack/internal/gen"
	"sympack/internal/machine"
	"sympack/internal/matrix"
	"sympack/internal/metrics"
	"sympack/internal/server"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8157", "sympackd address to load")
		sessions = flag.Int("sessions", 16, "concurrent client sessions")
		requests = flag.Int("requests", 8, "factor requests per session")
		solves   = flag.Int("solves", 2, "solve requests per successful factor")
		size     = flag.Int("size", 8, "test matrices are size×size 2D Laplacians")
		patterns = flag.Int("patterns", 4, "distinct sparsity patterns to cycle (analysis-cache pressure)")
		mix      = flag.Float64("mix", 0, "fraction of sessions driving iterative /v1/solvecg instead of factor+solve (0..1)")
		deadline = flag.Int64("deadline-ms", 0, "per-request deadline forwarded to the server (0 = none)")
		timeout  = flag.Duration("timeout", 2*time.Minute, "client-side HTTP timeout per request")

		metricsAddr = flag.String("metrics-addr", "", "serve loadgen's own /metrics and /healthz on this host:port while running")
		report      = flag.String("report", "", "write a machine-readable run report to this JSON file ('auto' = BENCH_loadgen_<timestamp>.json)")
	)
	flag.Parse()
	if *mix < 0 || *mix > 1 {
		fmt.Fprintln(os.Stderr, "loadgen: -mix must be in [0, 1]")
		os.Exit(1)
	}
	ok, err := run(*addr, *sessions, *requests, *solves, *size, *patterns, *mix, *deadline, *timeout, *metricsAddr, *report)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(2)
	}
}

// outcome is one request's result.
type outcome struct {
	endpoint string
	code     int // 0 = transport error
	seconds  float64
}

// expectedStatus is the envelope vocabulary: statuses the robustness
// design produces on purpose under overload, chaos or client error.
// Anything else (especially 500) is a defect.
func expectedStatus(code int) bool {
	switch code {
	case http.StatusOK, http.StatusNotFound, http.StatusUnprocessableEntity,
		http.StatusTooManyRequests, server.StatusClientClosedRequest,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

func run(addr string, sessions, requests, solves, size, patterns int, mix float64, deadlineMillis int64,
	timeout time.Duration, metricsAddr, report string) (bool, error) {

	if patterns < 1 {
		patterns = 1
	}
	// Base matrices: distinct sparsity patterns; per-request value scaling
	// below makes factor keys distinct while analyses stay shared.
	bases := make([]*matrix.SparseSym, patterns)
	for i := range bases {
		bases[i] = gen.Laplace2D(size, size+i)
	}

	reg := metrics.NewRegistry()
	reqTotal := func(endpoint string, code int) *metrics.Counter {
		return reg.Counter("sympack_loadgen_requests_total",
			"loadgen requests by endpoint and status (0 = transport error)",
			"endpoint", endpoint, "code", fmt.Sprintf("%d", code))
	}
	var sidecar *metrics.Server
	if metricsAddr != "" {
		var err error
		sidecar, err = metrics.Serve(metricsAddr, reg.Snapshot, func() (any, bool) {
			return map[string]bool{"ok": true}, true
		})
		if err != nil {
			return false, fmt.Errorf("metrics sidecar: %w", err)
		}
		fmt.Fprintf(os.Stderr, "loadgen: metrics at http://%s/metrics\n", sidecar.Addr())
		defer sidecar.Close()
	}

	client := &http.Client{Timeout: timeout}
	var mu sync.Mutex
	var results []outcome
	record := func(o outcome) {
		mu.Lock()
		results = append(results, o)
		mu.Unlock()
		reqTotal(o.endpoint, o.code).Inc()
	}

	post := func(path string, body, out any) (int, error) {
		buf, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		resp, err := client.Post("http://"+addr+path, "application/json", bytes.NewReader(buf))
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			return resp.StatusCode, err
		}
		if out != nil && resp.StatusCode == http.StatusOK {
			if err := json.Unmarshal(raw, out); err != nil {
				return resp.StatusCode, err
			}
		}
		return resp.StatusCode, nil
	}

	// The first ⌈mix·sessions⌉ sessions drive the iterative endpoint; the
	// rest run the classic factor+solve flow. Assignment by session index
	// keeps the blend deterministic for a given flag set.
	iterSessions := int(mix * float64(sessions))

	start := machine.WallNow()
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			iterative := s < iterSessions
			for r := 0; r < requests; r++ {
				base := bases[(s+r)%len(bases)]
				m := base.Clone()
				scale := 1 + 0.01*float64(s*31+r) // distinct values → distinct factor keys
				for i := range m.Val {
					m.Val[i] *= scale
				}
				if iterative {
					rhs := make([]float64, m.N)
					for i := range rhs {
						rhs[i] = float64(i%3) + 1
					}
					creq := server.SolveCGRequest{
						Matrix: server.WireMatrix{
							N: m.N, ColPtr: m.ColPtr, RowInd: m.RowInd, Val: m.Val,
						},
						B: rhs, Solver: "pcg", ICLevel: 1,
						DeadlineMillis: deadlineMillis,
					}
					t0 := machine.WallNow()
					code, err := post("/v1/solvecg", creq, nil)
					if err != nil && code == 0 {
						code = 0
					}
					record(outcome{endpoint: "solvecg", code: code, seconds: machine.WallSince(t0).Seconds()})
					continue
				}
				freq := server.FactorRequest{
					Matrix: server.WireMatrix{
						N: m.N, ColPtr: m.ColPtr, RowInd: m.RowInd, Val: m.Val,
					},
					DeadlineMillis: deadlineMillis,
				}
				var fresp server.FactorResponse
				t0 := machine.WallNow()
				code, err := post("/v1/factor", freq, &fresp)
				if err != nil && code == 0 {
					record(outcome{endpoint: "factor", code: 0, seconds: machine.WallSince(t0).Seconds()})
					continue
				}
				record(outcome{endpoint: "factor", code: code, seconds: machine.WallSince(t0).Seconds()})
				if code != http.StatusOK {
					continue
				}
				rhs := make([]float64, m.N)
				for i := range rhs {
					rhs[i] = float64(i%3) + 1
				}
				for k := 0; k < solves; k++ {
					t1 := machine.WallNow()
					scode, serr := post("/v1/solve",
						server.SolveRequest{Factor: fresp.Factor, B: rhs}, nil)
					if serr != nil && scode == 0 {
						scode = 0
					}
					record(outcome{endpoint: "solve", code: scode, seconds: machine.WallSince(t1).Seconds()})
				}
			}
		}()
	}
	wg.Wait()
	wall := machine.WallSince(start)

	return summarize(reg, results, wall, sessions, requests, report)
}

// summarize prints the human report, publishes the headline gauges, and
// writes the optional run-report artifact. It returns false when any
// request fell outside the expected status vocabulary.
func summarize(reg *metrics.Registry, results []outcome, wall time.Duration,
	sessions, requests int, report string) (bool, error) {

	taxonomy := map[int]int64{}
	var lat []float64
	latByMode := map[string][]float64{}
	var shed, unexpected int64
	for _, o := range results {
		taxonomy[o.code]++
		if o.code == http.StatusOK {
			lat = append(lat, o.seconds)
			mode := "direct"
			if o.endpoint == "solvecg" {
				mode = "iter"
			}
			latByMode[mode] = append(latByMode[mode], o.seconds)
		}
		if o.code == http.StatusTooManyRequests {
			shed++
		}
		if !expectedStatus(o.code) {
			unexpected++
		}
	}
	total := int64(len(results))
	pctl := func(lat []float64, q float64) float64 {
		if len(lat) == 0 {
			return 0
		}
		i := int(float64(len(lat)) * q)
		if i >= len(lat) {
			i = len(lat) - 1
		}
		return lat[i]
	}
	sort.Float64s(lat)
	p50, p99 := pctl(lat, 0.50), pctl(lat, 0.99)

	reg.Gauge("sympack_loadgen_p50_seconds", "p50 latency of successful requests", metrics.MergeMax).Set(p50)
	reg.Gauge("sympack_loadgen_p99_seconds", "p99 latency of successful requests", metrics.MergeMax).Set(p99)
	var modes []string
	for mode := range latByMode {
		modes = append(modes, mode)
	}
	sort.Strings(modes)
	for _, mode := range modes {
		ml := latByMode[mode]
		sort.Float64s(ml)
		reg.Gauge("sympack_loadgen_mode_p50_seconds", "p50 latency by session mode", metrics.MergeMax,
			"mode", mode).Set(pctl(ml, 0.50))
		reg.Gauge("sympack_loadgen_mode_p99_seconds", "p99 latency by session mode", metrics.MergeMax,
			"mode", mode).Set(pctl(ml, 0.99))
	}
	reg.Gauge("sympack_loadgen_shed_ratio", "fraction of requests shed with 429", metrics.MergeMax).
		Set(ratio(shed, total))
	reg.Counter("sympack_loadgen_unexpected_total", "responses outside the expected status vocabulary").
		Add(float64(unexpected))

	fmt.Printf("loadgen: %d sessions × %d factor requests in %v\n", sessions, requests, wall.Round(time.Millisecond))
	fmt.Printf("  requests: %d total, p50 %.1fms, p99 %.1fms (successful only)\n",
		total, p50*1e3, p99*1e3)
	for _, mode := range modes {
		ml := latByMode[mode]
		fmt.Printf("  %-7s %6d ok, p50 %.1fms, p99 %.1fms\n",
			mode+":", len(ml), pctl(ml, 0.50)*1e3, pctl(ml, 0.99)*1e3)
	}
	fmt.Printf("  shed rate: %.1f%% (%d × 429)\n", 100*ratio(shed, total), shed)
	fmt.Println("  status taxonomy:")
	var codes []int
	for c := range taxonomy {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	for _, c := range codes {
		label := http.StatusText(c)
		switch c {
		case 0:
			label = "transport error"
		case server.StatusClientClosedRequest:
			label = "Client Closed Request"
		}
		marker := ""
		if !expectedStatus(c) {
			marker = "  <-- UNEXPECTED"
		}
		fmt.Printf("    %3d %-24s %6d%s\n", c, label, taxonomy[c], marker)
	}

	if report != "" {
		rep := &metrics.RunReport{Command: "loadgen", WallSeconds: wall.Seconds(), Metrics: reg.Snapshot().Series}
		path, err := metrics.WriteReportFile(report, rep, machine.WallNow())
		if err != nil {
			return false, err
		}
		fmt.Fprintf(os.Stderr, "loadgen: report written to %s\n", path)
	}

	if unexpected > 0 {
		fmt.Fprintf(os.Stderr, "loadgen: FAIL — %d responses outside the expected vocabulary\n", unexpected)
		return false, nil
	}
	fmt.Println("loadgen: all responses within the expected vocabulary")
	return true, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
