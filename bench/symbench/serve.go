package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sympack"
	"sympack/internal/core"
	"sympack/internal/gen"
	"sympack/internal/matrix"
	"sympack/internal/server"
)

const serveName = "serve_sessions"

// serveClients is the number of closed-loop clients: each sends its next
// request only after the previous reply, and the host has two cores.
const serveClients = 2

// refactorScales rescale a pattern's values for the three refactor posts: a
// seen pattern with values the server has not seen (analysis-cache hit,
// factor-cache miss).
var refactorScales = []float64{2, 3, 5}

// servePattern is one sparsity pattern with every request body that can be
// encoded before the factor id is known.
type servePattern struct {
	a        *matrix.SparseSym
	b        []float64
	cold     []byte   // /v1/factor, the pattern's first values
	refactor [][]byte // /v1/factor, same pattern, rescaled values
	bJSON    []byte   // the right-hand side, spliced into /v1/solve bodies
}

func servePatternMatrix(cfg *config, seed int64) *matrix.SparseSym {
	if cfg.smoke {
		return gen.Thermal2D(24, 24, 2, seed)
	}
	return gen.Thermal2D(96, 96, 4, seed)
}

func newServePattern(a *matrix.SparseSym, seed int64) (*servePattern, error) {
	p := &servePattern{a: a, b: randomRHS(rand.New(rand.NewSource(seed)), a.N)}
	var err error
	if p.cold, err = factorBody(p.a); err != nil {
		return nil, err
	}
	for _, s := range refactorScales {
		body, err := factorBody(p.a.Scale(s))
		if err != nil {
			return nil, err
		}
		p.refactor = append(p.refactor, body)
	}
	p.bJSON, err = json.Marshal(p.b)
	return p, err
}

func factorBody(a *matrix.SparseSym) ([]byte, error) {
	return json.Marshal(server.FactorRequest{Matrix: server.WireMatrix{N: a.N, ColPtr: a.ColPtr, RowInd: a.RowInd, Val: a.Val}})
}

func solveBody(factorID string, bJSON []byte) []byte {
	return bytes.Join([][]byte{[]byte(`{"factor":"`), []byte(factorID), []byte(`","b":`), bJSON, []byte(`}`)}, nil)
}

// serveState is the workload after set-up: a sympackd listening on an
// ephemeral loopback port in this process, and the patterns to post.
type serveState struct {
	srv      *server.Server
	base     string
	http     *http.Client
	patterns []*servePattern
	solves   int // /v1/solve requests after each /v1/factor
}

// setupServe generates and encodes the patterns, starts the server and runs
// two warm-up sessions on patterns of their own. Everything here is setup_s.
func setupServe(cfg *config, layers layerSamples) (*serveState, error) {
	s := &serveState{solves: cfg.serveSolves}
	for i := 0; i < cfg.servePatterns+cfg.warmups; i++ {
		t0 := time.Now()
		a := servePatternMatrix(cfg, cfg.seed+int64(i))
		if layers != nil && i == 0 {
			layers.add("gen.build_s", time.Since(t0).Seconds())
		}
		p, err := newServePattern(a, cfg.seed+int64(i))
		if err != nil {
			return nil, fmt.Errorf("%s: encode pattern %d: %w", serveName, i, err)
		}
		s.patterns = append(s.patterns, p)
	}
	s.srv = server.New(server.Config{Solver: core.Options{Ranks: 1, Workers: 1}})
	if err := s.srv.Start("127.0.0.1:0"); err != nil {
		return nil, fmt.Errorf("%s: start server: %w", serveName, err)
	}
	s.base = "http://" + s.srv.Addr()
	s.http = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}
	warm := &serveClient{state: s}
	for _, p := range s.patterns[cfg.servePatterns:] {
		warm.session(p, -1, tracer{workload: serveName, parent: -1})
	}
	s.patterns = s.patterns[:cfg.servePatterns]
	if warm.failed > 0 {
		s.close()
		return nil, fmt.Errorf("%s: %d of %d warm-up requests failed", serveName, warm.failed, warm.attempted)
	}
	return s, nil
}

// close drains and stops the server and drops the client's connections.
func (s *serveState) close() {
	s.http.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "symbench: %s: shutdown: %v\n", serveName, err)
	}
}

// serveClient is one closed-loop client and what it measured. Latencies are
// seconds from sending a request to having read the whole reply; decoding
// and checking the reply happen after the clock stops.
type serveClient struct {
	state *serveState
	res   residualChecker
	wall  float64
	serveSamples
}

// serveSamples is what a client measured; gather adds them up.
type serveSamples struct {
	cold, refactor, hit, solution []float64
	plainSolve, tracedSolve       []float64 // solves of sessions with spans off / on
	attempted, failed             int
	bytesSent                     int64
}

func (s *serveSamples) solves() []float64 {
	return append(append([]float64(nil), s.plainSolve...), s.tracedSolve...)
}

// post sends one request. ok is false when the reply is not a well-formed
// 200; the latency of every 200 is kept by the caller whether or not the
// answer then passes its check.
func (c *serveClient) post(t tracer, span, path string, body []byte, into any) (lat float64, ok bool) {
	c.attempted++
	c.bytesSent += int64(len(body))
	var status int
	var reply []byte
	var err error
	lat = t.time(span, func() {
		var resp *http.Response
		if resp, err = c.state.http.Post(c.state.base+path, "application/json", bytes.NewReader(body)); err != nil {
			return
		}
		status = resp.StatusCode
		reply, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	})
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(reply))
	}
	if err == nil {
		if err = json.Unmarshal(reply, into); err != nil {
			err = fmt.Errorf("malformed reply: %w", err)
		}
	}
	if err != nil {
		c.fail("%s %s: %v", span, path, err)
		return lat, false
	}
	return lat, true
}

func (c *serveClient) fail(format string, args ...any) {
	c.failed++
	fmt.Fprintf(os.Stderr, "symbench: %s: %s\n", serveName, fmt.Sprintf(format, args...))
}

// factor posts a matrix and checks the reply names a factor and reports the
// cache tier the session expects.
func (c *serveClient) factor(t tracer, span string, body []byte, wantCached bool) (id string, lat float64, ok bool) {
	var fr server.FactorResponse
	if lat, ok = c.post(t, span, "/v1/factor", body, &fr); !ok {
		return "", lat, false
	}
	if fr.Factor == "" || fr.NnzL <= 0 || fr.Cached != wantCached {
		c.fail("%s: reply factor=%q nnz_l=%d cached=%v, want cached=%v", span, fr.Factor, fr.NnzL, fr.Cached, wantCached)
	}
	return fr.Factor, lat, fr.Factor != ""
}

// solves posts n solves against a cached factor, checking each answer
// against the matrix that factor was posted for, and returns the latency of
// the first.
func (c *serveClient) solveN(t tracer, n int, body []byte, p *servePattern) (first float64) {
	for i := 0; i < n; i++ {
		var sr server.SolveResponse
		lat, ok := c.post(t, "http.solve", "/v1/solve", body, &sr)
		if !ok {
			continue
		}
		if t.rec != nil {
			c.tracedSolve = append(c.tracedSolve, lat)
		} else {
			c.plainSolve = append(c.plainSolve, lat)
		}
		if first == 0 {
			first = lat
		}
		if r := c.res.residual(p.a, sr.X, p.b); r > residualTol {
			c.fail("http.solve: relative residual %.3g > %g", r, residualTol)
		}
	}
	return first
}

// session is one pattern's life: a cold factor and its solves; three
// refactors with rescaled values, each followed by solves; and a re-post of
// the first matrix, which the factor cache answers.
//
// The solves after a refactor go to the first factor, not the refactored
// one: on an analysis-cache hit the server factors the values it saw first
// (bench/README.md, known failing checks), and a workload may hold no op
// that fails. server.refactor_residual reports that check on its own.
func (c *serveClient) session(p *servePattern, idx int, t tracer) {
	t.opID = idx
	t, done := t.under("session")
	defer done()
	id, cold, ok := c.factor(t, "http.factor.cold", p.cold, false)
	if !ok {
		return
	}
	c.cold = append(c.cold, cold)
	body := solveBody(id, p.bJSON)
	if first := c.solveN(t, c.state.solves, body, p); first > 0 {
		c.solution = append(c.solution, cold+first)
	}
	for _, rb := range p.refactor {
		if _, lat, ok := c.factor(t, "http.factor.refactor", rb, false); ok {
			c.refactor = append(c.refactor, lat)
		}
		c.solveN(t, c.state.solves, body, p)
	}
	if _, lat, ok := c.factor(t, "http.factor.hit", p.cold, true); ok {
		c.hit = append(c.hit, lat)
	}
}

// closedLoop runs the clients over the patterns, one session per pattern,
// until the patterns or the run's seconds are used up, and returns what each
// client measured. With a recorder, every other session records spans.
func (s *serveState) closedLoop(cfg *config, rec *recorder) []*serveClient {
	clients := make([]*serveClient, serveClients)
	var next atomic.Int64
	deadline := time.Now().Add(cfg.window())
	var wg sync.WaitGroup
	for ci := range clients {
		c := &serveClient{state: s}
		clients[ci] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			for n := 0; n < 1 || time.Now().Before(deadline); n++ {
				idx := int(next.Add(1)) - 1
				if idx >= len(s.patterns) {
					break
				}
				t := tracer{workload: serveName, parent: -1}
				if idx%2 == 1 {
					t.rec = rec
				}
				c.session(s.patterns[idx], idx, t)
			}
			c.wall = time.Since(t0).Seconds()
		}()
	}
	wg.Wait()
	return clients
}

// serveTotals is the clients' measurements put together.
type serveTotals struct {
	serveSamples
	rps float64 // Σ over clients of requests ÷ that client's wall seconds
}

func gather(clients []*serveClient) *serveTotals {
	var t serveTotals
	for _, c := range clients {
		t.cold = append(t.cold, c.cold...)
		t.refactor = append(t.refactor, c.refactor...)
		t.hit = append(t.hit, c.hit...)
		t.solution = append(t.solution, c.solution...)
		t.plainSolve = append(t.plainSolve, c.plainSolve...)
		t.tracedSolve = append(t.tracedSolve, c.tracedSolve...)
		t.attempted += c.attempted
		t.failed += c.failed
		t.bytesSent += c.bytesSent
		t.rps += float64(c.attempted) / c.wall
	}
	return &t
}

// runServeUntraced is pass 1: several complete set-ups, then the closed loop.
func runServeUntraced(cfg *config) (*workloadResult, error) {
	begin := time.Now()
	var st *serveState
	setups, err := cfg.timeSetups(func() {
		if st != nil {
			st.close()
			st = nil
		}
	}, func() (err error) {
		st, err = setupServe(cfg, nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer st.close()

	runtime.GC()
	m0 := readMem()
	tot := gather(st.closedLoop(cfg, nil))
	mb, mallocs := allocDelta(m0, readMem())

	res := newResult(serveName, begin, tot.attempted, tot.failed)
	res.timing("setup_s", setups)
	res.timing("solution_s", tot.solution)
	res.timing("factor_s", tot.refactor)
	res.timing("solve_s", tot.solves())
	res.value("alloc_mb_per_op", mb/float64(tot.attempted))
	res.value("allocs_per_op", mallocs/float64(tot.attempted))
	res.value("ops_per_s", tot.rps)
	return res, nil
}

// runServeTraced is pass 2: the closed loop with spans on every other
// session, the server's own counters, the in-process solve the wire overhead
// is read against, the known-failing refactor check, and the decomposed
// pipeline on the first pattern.
func runServeTraced(cfg *config, rec *recorder) (*workloadResult, error) {
	begin := time.Now()
	layers := layerSamples{}
	st, err := setupServe(cfg, layers)
	if err != nil {
		return nil, err
	}
	defer st.close()
	tot := gather(st.closedLoop(cfg, rec))

	res := newResult(serveName, begin, tot.attempted, tot.failed)
	ms := func(xs []float64) float64 { return 1e3 * median(xs) }
	res.layer("serve_rps", tot.rps)
	res.layer("cold_factor_ms", ms(tot.cold))
	res.layer("refactor_ms", ms(tot.refactor))
	solves := tot.solves()
	res.layer("cached_solve_ms", ms(solves))
	res.layer("server.factor_hit_ms", ms(tot.hit))
	res.layer("server.cached_solve_p99_ms", 1e3*percentile(solves, 99))
	res.layer("server.req_body_mb", float64(tot.bytesSent)/float64(tot.attempted)/mib)
	snap := st.srv.Registry().Snapshot()
	res.layer("server.cache_hits", familySum(snap, "sympack_server_cache_hits_total"))
	res.layer("server.cache_misses", familySum(snap, "sympack_server_cache_misses_total"))
	res.layer("server.cache_evictions", familySum(snap, "sympack_server_cache_evictions_total"))
	res.layer("server.shed", familySum(snap, "sympack_server_shed_total"))
	res.layer("server.queue_peak", familySum(snap, "sympack_server_queue_peak"))

	// Overhead of span recording: solves of the traced sessions against
	// solves of the untraced sessions of the same closed loop.
	res.layer("trace.overhead_ratio", median(tot.tracedSolve)/median(tot.plainSolve)-1)

	p := st.patterns[0]
	opt := core.Options{Ranks: 1, Workers: 1}
	inproc, err := inprocSolveMS(p, opt)
	if err != nil {
		return nil, err
	}
	res.layer("server.solve_inproc_ms", inproc)
	res.layer("server.wire_overhead_ms", ms(solves)-inproc)

	// The known failing check: post a pattern of its own, post it again with
	// rescaled values (an analysis-cache hit whatever the cache has evicted
	// meanwhile), solve against that factor and hold the answer to the
	// matrix posted for it.
	probeSeed := cfg.seed + int64(cfg.servePatterns+cfg.warmups)
	pp, err := newServePattern(servePatternMatrix(cfg, probeSeed), probeSeed)
	if err != nil {
		return nil, fmt.Errorf("%s: encode probe pattern: %w", serveName, err)
	}
	probe := &serveClient{state: st}
	last := len(refactorScales) - 1
	var fr server.FactorResponse
	var sr server.SolveResponse
	if _, ok := probe.post(tracer{}, "http.factor.probe", "/v1/factor", pp.cold, &fr); ok {
		if _, ok = probe.post(tracer{}, "http.factor.probe", "/v1/factor", pp.refactor[last], &fr); ok {
			probe.post(tracer{}, "http.solve.probe", "/v1/solve", solveBody(fr.Factor, pp.bJSON), &sr)
		}
	}
	if probe.failed > 0 {
		return nil, fmt.Errorf("%s: the refactor probe got no answer to check", serveName)
	}
	res.layer("server.refactor_residual", probe.res.residual(pp.a.Scale(refactorScales[last]), sr.X, pp.b))

	in := &pipelineInput{a: p.a, b: p.b, opt: opt}
	var res2 residualChecker
	for i := 0; i < cfg.minTracedOps; i++ {
		root, done := tracer{rec: rec, workload: serveName, parent: -1, opID: len(st.patterns) + i}.under("op")
		err := decomposed(root, in, layers, &res2)
		done()
		res.Attempted++
		if err != nil {
			res.Failed++
			fmt.Fprintf(os.Stderr, "symbench: %s: decomposed pipeline %d failed: %v\n", serveName, i, err)
		}
	}
	res.layers(layers)
	res.layer("failed_ops_ratio", float64(res.Failed)/float64(res.Attempted))
	res.WallS = time.Since(begin).Seconds()
	return res, nil
}

// inprocSolveMS is the median milliseconds of Factor.Solve on the pattern's
// own matrix, called directly: what a cached solve costs without the wire.
func inprocSolveMS(p *servePattern, opt core.Options) (float64, error) {
	an, err := sympack.Analyze(p.a, opt)
	if err != nil {
		return 0, fmt.Errorf("%s: in-process Analyze: %w", serveName, err)
	}
	f, err := an.Factorize(p.a)
	if err != nil {
		return 0, fmt.Errorf("%s: in-process Factorize: %w", serveName, err)
	}
	var samples []float64
	for i := 0; i < 21; i++ {
		t0 := time.Now()
		if _, err := f.Solve(p.b); err != nil {
			return 0, fmt.Errorf("%s: in-process Solve: %w", serveName, err)
		}
		samples = append(samples, 1e3*time.Since(t0).Seconds())
	}
	return median(samples), nil
}
