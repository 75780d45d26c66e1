package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"testing"
	"time"

	"sympack/internal/core"
	"sympack/internal/gen"
	"sympack/internal/matrix"
	"sympack/internal/metrics"
)

// wire converts a matrix to its JSON form.
func wire(a *matrix.SparseSym) WireMatrix {
	return WireMatrix{N: a.N, ColPtr: a.ColPtr, RowInd: a.RowInd, Val: a.Val}
}

// startServer boots a Server on an ephemeral port and tears it down with
// the test.
func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := New(cfg)
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s
}

// post sends a JSON request and decodes the response into out (which may
// be nil to ignore the body). It returns the status code and headers.
func post(t *testing.T, addr, path string, body, out any) (int, http.Header) {
	t.Helper()
	code, hdr, err := postCtx(context.Background(), addr, path, body, out)
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	return code, hdr
}

func postCtx(ctx context.Context, addr, path string, body, out any) (int, http.Header, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	req, err := http.NewRequestWithContext(ctx, "POST", "http://"+addr+path, bytes.NewReader(buf))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, resp.Header, err
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return resp.StatusCode, resp.Header, fmt.Errorf("body %q: %w", raw, err)
		}
	}
	return resp.StatusCode, resp.Header, nil
}

func getHealth(t *testing.T, addr string) (int, Health) {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, h
}

func TestAnalyzeFactorSolveRoundtrip(t *testing.T) {
	s := startServer(t, Config{})
	a := gen.Laplace2D(8, 8)

	var ar AnalyzeResponse
	if code, _ := post(t, s.Addr(), "/v1/analyze", AnalyzeRequest{Matrix: wire(a)}, &ar); code != 200 {
		t.Fatalf("analyze status %d", code)
	}
	if ar.Pattern == "" || ar.N != a.N || ar.NnzL <= int64(a.Nnz()) {
		t.Fatalf("analyze response %+v", ar)
	}
	if ar.Cached {
		t.Fatal("first analyze claims a cache hit")
	}

	var fr FactorResponse
	if code, _ := post(t, s.Addr(), "/v1/factor", FactorRequest{Matrix: wire(a)}, &fr); code != 200 {
		t.Fatalf("factor status %d", code)
	}
	if fr.Pattern != ar.Pattern {
		t.Fatalf("factor pattern %s != analyze pattern %s", fr.Pattern, ar.Pattern)
	}
	if fr.Cached {
		t.Fatal("first factor claims a cache hit")
	}

	// Same matrix again: served from cache.
	var fr2 FactorResponse
	post(t, s.Addr(), "/v1/factor", FactorRequest{Matrix: wire(a)}, &fr2)
	if !fr2.Cached || fr2.Factor != fr.Factor {
		t.Fatalf("re-factor response %+v, want cache hit on %s", fr2, fr.Factor)
	}

	// Same pattern, different values: analysis reused, factor recomputed
	// under a distinct id.
	b2 := a.Clone()
	for i := range b2.Val {
		b2.Val[i] *= 1.5
	}
	var fr3 FactorResponse
	post(t, s.Addr(), "/v1/factor", FactorRequest{Matrix: wire(b2)}, &fr3)
	if fr3.Cached || fr3.Factor == fr.Factor || fr3.Pattern != fr.Pattern {
		t.Fatalf("scaled-values factor %+v vs original %s", fr3, fr.Factor)
	}

	// Solve against the cached factor and check the residual for real.
	rhs := make([]float64, a.N)
	for i := range rhs {
		rhs[i] = float64(i%7) + 1
	}
	var sr SolveResponse
	if code, _ := post(t, s.Addr(), "/v1/solve", SolveRequest{Factor: fr.Factor, B: rhs}, &sr); code != 200 {
		t.Fatalf("solve status %d", code)
	}
	if res := core.ResidualNorm(a, sr.X, rhs); res > 1e-10 {
		t.Fatalf("residual %g", res)
	}

	// Batched multi-RHS.
	var br SolveBatchResponse
	if code, _ := post(t, s.Addr(), "/v1/solvebatch",
		SolveBatchRequest{Factor: fr.Factor, Bs: [][]float64{rhs, rhs}}, &br); code != 200 {
		t.Fatalf("solvebatch status %d", code)
	}
	if len(br.Xs) != 2 {
		t.Fatalf("%d solutions, want 2", len(br.Xs))
	}
	for i, x := range br.Xs {
		if res := core.ResidualNorm(a, x, rhs); res > 1e-10 {
			t.Fatalf("batch rhs %d residual %g", i, res)
		}
	}

	// An unknown factor id is 404, not 500.
	var apiErr apiError
	if code, _ := post(t, s.Addr(), "/v1/solve",
		SolveRequest{Factor: "deadbeef-deadbeef", B: rhs}, &apiErr); code != http.StatusNotFound {
		t.Fatalf("unknown factor status %d, want 404", code)
	}

	// Garbage input is 400.
	if code, _ := post(t, s.Addr(), "/v1/factor",
		FactorRequest{Matrix: WireMatrix{N: -3}}, nil); code != http.StatusBadRequest {
		t.Fatalf("bad matrix status %d, want 400", code)
	}

	// The server's own /metrics endpoint serves a valid exposition with
	// the request counters in it.
	resp, err := http.Get("http://" + s.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	expo, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if _, _, err := metrics.ValidateExposition(bytes.NewReader(expo)); err != nil {
		t.Fatalf("invalid exposition: %v", err)
	}
	for _, want := range []string{
		`sympack_server_requests_total{endpoint="factor",code="200"}`,
		`sympack_server_requests_total{endpoint="solve",code="404"}`,
		"sympack_server_cache_hits_total",
	} {
		if !bytes.Contains(expo, []byte(want)) {
			t.Errorf("exposition missing %s", want)
		}
	}
}

// blockingEngine is a factorFn seam that parks until released or the
// request context ends, then delegates to the real engine.
type blockingEngine struct {
	mu      sync.Mutex
	gate    chan struct{} // closed to release all parked calls
	started chan struct{} // receives one token per call that parked
}

func newBlockingEngine(buffer int) *blockingEngine {
	return &blockingEngine{gate: make(chan struct{}), started: make(chan struct{}, buffer)}
}

func (e *blockingEngine) factor(p *core.Plan, a *matrix.SparseSym, opt core.Options) (*core.Factor, error) {
	e.started <- struct{}{}
	ctx := opt.Context
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-e.gate:
		return p.Factorize(a, opt)
	case <-ctx.Done():
		return nil, fmt.Errorf("%w: %v", core.ErrCanceled, ctx.Err())
	}
}

func (e *blockingEngine) release() {
	e.mu.Lock()
	select {
	case <-e.gate:
	default:
		close(e.gate)
	}
	e.mu.Unlock()
}

// TestDeadlineReturns504AndLeavesCacheConsistent is the ISSUE acceptance
// path: a factorization that cannot finish inside its deadline comes back
// as 504 within 2× the deadline, and a follow-up request for the same
// pattern succeeds cleanly — the canceled run never poisons the cache.
func TestDeadlineReturns504AndLeavesCacheConsistent(t *testing.T) {
	s := startServer(t, Config{})
	eng := newBlockingEngine(4)
	s.factorFn = eng.factor

	a := gen.Laplace2D(8, 8)
	const deadline = 300 * time.Millisecond
	start := time.Now()
	var apiErr apiError
	code, _ := post(t, s.Addr(), "/v1/factor",
		FactorRequest{Matrix: wire(a), DeadlineMillis: int64(deadline / time.Millisecond)}, &apiErr)
	elapsed := time.Since(start)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", code, apiErr.Error)
	}
	if elapsed > 2*deadline {
		t.Fatalf("deadline-exceeded response took %v, want within 2×%v", elapsed, deadline)
	}
	if got := s.met.DeadlineMiss.Value(); got != 1 {
		t.Fatalf("deadline-miss counter = %g, want 1", got)
	}

	// The follow-up on the same pattern succeeds once the engine runs
	// freely, and nothing half-finished was cached in between.
	eng.release()
	var fr FactorResponse
	if code, _ := post(t, s.Addr(), "/v1/factor", FactorRequest{Matrix: wire(a)}, &fr); code != 200 {
		t.Fatalf("follow-up factor status %d", code)
	}
	if fr.Cached {
		t.Fatal("canceled factorization left a cached Factor behind")
	}
	rhs := make([]float64, a.N)
	for i := range rhs {
		rhs[i] = 1
	}
	var sr SolveResponse
	post(t, s.Addr(), "/v1/solve", SolveRequest{Factor: fr.Factor, B: rhs}, &sr)
	if res := core.ResidualNorm(a, sr.X, rhs); res > 1e-10 {
		t.Fatalf("residual after recovery %g", res)
	}
}

// TestShedAndHealthUnderSaturation drives the admission gate past 2× its
// capacity: excess arrivals shed with 429 + Retry-After while /healthz
// reports 503, and both recover once the flood drains.
func TestShedAndHealthUnderSaturation(t *testing.T) {
	s := startServer(t, Config{InflightCap: 2, QueueCap: 2})
	eng := newBlockingEngine(16)
	s.factorFn = eng.factor
	a := gen.Laplace2D(8, 8)

	// Fill every slot and every queue position with requests on distinct
	// values (distinct factor keys, shared pattern).
	results := make(chan int, 16)
	launch := func(scale float64) {
		m := a.Clone()
		for i := range m.Val {
			m.Val[i] *= scale
		}
		go func() {
			code, _, err := postCtx(context.Background(), s.Addr(), "/v1/factor",
				FactorRequest{Matrix: wire(m)}, nil)
			if err != nil {
				code = -1
			}
			results <- code
		}()
	}
	for i := 0; i < 2; i++ {
		launch(1 + float64(i))
		<-eng.started // wait until it is inside the engine
	}
	for i := 0; i < 2; i++ {
		launch(10 + float64(i))
	}
	waitFor(t, func() bool { _, q := s.adm.occupancy(); return q == 2 })

	// Saturated: readiness is 503 before the next arrival is even made.
	if code, h := getHealth(t, s.Addr()); code != http.StatusServiceUnavailable || h.OK {
		t.Fatalf("saturated healthz = %d %+v, want 503", code, h)
	}

	// Arrivals beyond 2× capacity shed with 429 and a sane Retry-After.
	var apiErr apiError
	m := a.Clone()
	for i := range m.Val {
		m.Val[i] *= 99
	}
	code, hdr := post(t, s.Addr(), "/v1/factor", FactorRequest{Matrix: wire(m)}, &apiErr)
	if code != http.StatusTooManyRequests {
		t.Fatalf("overload status %d (%s), want 429", code, apiErr.Error)
	}
	ra, err := strconv.Atoi(hdr.Get("Retry-After"))
	if err != nil || ra < 1 || ra > 60 {
		t.Fatalf("Retry-After %q, want an integer in [1,60]", hdr.Get("Retry-After"))
	}
	if got := s.met.Shed.Value(); got < 1 {
		t.Fatalf("shed counter = %g", got)
	}

	// Drain the flood: everyone admitted completes, health recovers.
	eng.release()
	for i := 0; i < 4; i++ {
		if code := <-results; code != 200 {
			t.Fatalf("flood request %d finished with %d", i, code)
		}
	}
	if code, h := getHealth(t, s.Addr()); code != http.StatusOK || !h.OK {
		t.Fatalf("recovered healthz = %d %+v, want 200", code, h)
	}
}

// TestGracefulDrain checks the SIGTERM path: Shutdown stops admitting
// (503), finishes in-flight work, and returns.
func TestGracefulDrain(t *testing.T) {
	s := startServer(t, Config{})
	eng := newBlockingEngine(4)
	s.factorFn = eng.factor
	a := gen.Laplace2D(6, 6)

	inFlight := make(chan int, 1)
	go func() {
		code, _, err := postCtx(context.Background(), s.Addr(), "/v1/factor",
			FactorRequest{Matrix: wire(a)}, nil)
		if err != nil {
			code = -1
		}
		inFlight <- code
	}()
	<-eng.started

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- s.Shutdown(ctx)
	}()
	waitFor(t, func() bool { return s.draining.Load() })

	// New work is refused while draining.
	if code, _, _ := postCtx(context.Background(), s.Addr(), "/v1/analyze",
		AnalyzeRequest{Matrix: wire(a)}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("request during drain got %d, want 503", code)
	}
	select {
	case err := <-drained:
		t.Fatalf("Shutdown returned (%v) with a request still in flight", err)
	default:
	}

	// The in-flight request runs to completion and drain finishes.
	eng.release()
	if code := <-inFlight; code != 200 {
		t.Fatalf("in-flight request finished with %d during drain", code)
	}
	if err := <-drained; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if got := s.met.Draining.Value(); got != 1 {
		t.Fatalf("draining gauge = %g", got)
	}
}

// TestEvictionMidSolveKeepsFactorUsable pins the GC-backed eviction
// contract end to end: a factor evicted while a solve holds it still
// produces a correct solution, and the next solve sees a clean 404.
func TestEvictionMidSolveKeepsFactorUsable(t *testing.T) {
	s := startServer(t, Config{})
	a := gen.Laplace2D(8, 8)
	var fr FactorResponse
	post(t, s.Addr(), "/v1/factor", FactorRequest{Matrix: wire(a)}, &fr)

	// Grab the factor exactly as a solve request does, then thrash it.
	v, rel, ok := s.cache.get("f:" + fr.Factor)
	if !ok {
		t.Fatal("factor not cached")
	}
	s.cache.thrash("f:" + fr.Factor)
	f := v.(*core.Factor)
	rhs := make([]float64, a.N)
	for i := range rhs {
		rhs[i] = 2
	}
	x, err := f.SolveCtx(context.Background(), rhs)
	if err != nil {
		t.Fatalf("solve on evicted factor: %v", err)
	}
	if res := core.ResidualNorm(a, x, rhs); res > 1e-10 {
		t.Fatalf("residual on evicted factor %g", res)
	}
	rel()

	var apiErr apiError
	if code, _ := post(t, s.Addr(), "/v1/solve",
		SolveRequest{Factor: fr.Factor, B: rhs}, &apiErr); code != http.StatusNotFound {
		t.Fatalf("solve after eviction got %d, want 404", code)
	}
}

// TestFactorDeterministicAcrossCacheStates: a factor computed through the
// server equals one computed directly — the service layer must not
// perturb numeric results.
func TestFactorMatchesDirectEngine(t *testing.T) {
	s := startServer(t, Config{})
	a := gen.Laplace2D(7, 7)
	var fr FactorResponse
	post(t, s.Addr(), "/v1/factor", FactorRequest{Matrix: wire(a)}, &fr)
	v, rel, ok := s.cache.get("f:" + fr.Factor)
	if !ok {
		t.Fatal("factor not cached")
	}
	defer rel()
	served := v.(*core.Factor)

	direct, err := core.Factorize(a, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(served.Data) != len(direct.Data) {
		t.Fatalf("block counts differ: %d vs %d", len(served.Data), len(direct.Data))
	}
	for bid := range served.Data {
		for i := range served.Data[bid] {
			if sv, dv := served.Data[bid][i], direct.Data[bid][i]; sv != dv && !(math.IsNaN(sv) && math.IsNaN(dv)) {
				t.Fatalf("block %d entry %d: served %g, direct %g", bid, i, sv, dv)
			}
		}
	}
	if served.Opt.Context != nil {
		t.Fatal("cached factor retains a request context")
	}
}

// TestFactorOnAnalysisHitUsesPostedValues: the analysis cache is keyed by
// pattern alone, so a /v1/factor that hits it must factor the values it was
// posted, not the ones the analysis was first computed from — neither an
// earlier same-pattern matrix nor the zeros of a pattern-only /v1/analyze.
func TestFactorOnAnalysisHitUsesPostedValues(t *testing.T) {
	a := gen.Laplace2D(8, 8)
	a2 := a.Clone()
	for i := range a2.Val {
		a2.Val[i] *= 2
	}
	rhs := make([]float64, a.N)
	for i := range rhs {
		rhs[i] = float64(i%5) + 1
	}
	solveAgainst := func(t *testing.T, s *Server, m *matrix.SparseSym) {
		t.Helper()
		var fr FactorResponse
		if code, _ := post(t, s.Addr(), "/v1/factor", FactorRequest{Matrix: wire(m)}, &fr); code != 200 {
			t.Fatalf("factor status %d, want 200", code)
		}
		var sr SolveResponse
		if code, _ := post(t, s.Addr(), "/v1/solve", SolveRequest{Factor: fr.Factor, B: rhs}, &sr); code != 200 {
			t.Fatalf("solve status %d", code)
		}
		if res := core.ResidualNorm(m, sr.X, rhs); res > 1e-10 {
			t.Fatalf("residual against the posted matrix %g, want <= 1e-10", res)
		}
	}

	t.Run("refactor", func(t *testing.T) {
		s := startServer(t, Config{})
		solveAgainst(t, s, a)
		solveAgainst(t, s, a2)
	})
	t.Run("analyze-then-factor", func(t *testing.T) {
		s := startServer(t, Config{})
		pattern := wire(a)
		pattern.Val = nil
		if code, _ := post(t, s.Addr(), "/v1/analyze", AnalyzeRequest{Matrix: pattern}, nil); code != 200 {
			t.Fatalf("analyze status %d", code)
		}
		solveAgainst(t, s, a)
	})
}

// TestRefactorOnAnalysisHitMatchesColdServer: a /v1/factor that hits the
// analysis cache factors through the cached plan, and must return the
// factor and the solution a fresh server's cold factor of the same matrix
// returns, bit for bit.
func TestRefactorOnAnalysisHitMatchesColdServer(t *testing.T) {
	a := gen.Thermal2D(32, 32, 2, 4)
	shifted, err := a.ShiftDiag(0.75)
	if err != nil {
		t.Fatal(err)
	}
	rhs := make([]float64, a.N)
	for i := range rhs {
		rhs[i] = float64(i%7) - 2.5
	}
	// factorSolve factors m on s and solves rhs against it, returning the
	// served factor and the solution.
	factorSolve := func(s *Server, m *matrix.SparseSym, wantHit bool) (*core.Factor, []float64) {
		t.Helper()
		hits := s.met.CacheHits.Value()
		var fr FactorResponse
		if code, _ := post(t, s.Addr(), "/v1/factor", FactorRequest{Matrix: wire(m)}, &fr); code != 200 || fr.Cached {
			t.Fatalf("factor status %d, cached %v; want a fresh 200", code, fr.Cached)
		}
		if hit := s.met.CacheHits.Value() > hits; hit != wantHit {
			t.Fatalf("analysis cache hit %v, want %v", hit, wantHit)
		}
		v, rel, ok := s.cache.get("f:" + fr.Factor)
		if !ok {
			t.Fatal("factor not cached")
		}
		defer rel()
		var sr SolveResponse
		if code, _ := post(t, s.Addr(), "/v1/solve", SolveRequest{Factor: fr.Factor, B: rhs}, &sr); code != 200 {
			t.Fatalf("solve status %d", code)
		}
		return v.(*core.Factor), sr.X
	}
	warm := startServer(t, Config{})
	factorSolve(warm, a, false)
	refactor, xRefactor := factorSolve(warm, shifted, true)
	cold, xCold := factorSolve(startServer(t, Config{}), shifted, false)
	for bid := range cold.Data {
		for i, v := range cold.Data[bid] {
			if math.Float64bits(refactor.Data[bid][i]) != math.Float64bits(v) {
				t.Fatalf("block %d entry %d: refactor %g, cold %g", bid, i, refactor.Data[bid][i], v)
			}
		}
	}
	for i := range xCold {
		if math.Float64bits(xRefactor[i]) != math.Float64bits(xCold[i]) {
			t.Fatalf("x[%d]: refactor %g, cold %g", i, xRefactor[i], xCold[i])
		}
	}
}
