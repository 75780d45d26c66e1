package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"sympack/internal/core"
	"sympack/internal/krylov"
	"sympack/internal/machine"
	"sympack/internal/matrix"
	"sympack/internal/metrics"
	"sympack/internal/precond"
	"sympack/internal/symbolic"
)

// StatusClientClosedRequest is the nginx-convention status for a request
// whose own context was canceled (as opposed to a deadline the server
// enforced, which is 504).
const StatusClientClosedRequest = 499

// WireMatrix is the JSON encoding of a sparse SPD matrix in the same
// compressed lower-triangular layout matrix.SparseSym uses.
type WireMatrix struct {
	N      int       `json:"n"`
	ColPtr []int32   `json:"colptr"`
	RowInd []int32   `json:"rowind"`
	Val    []float64 `json:"val,omitempty"`
}

func (w *WireMatrix) toSym(needValues bool) (*matrix.SparseSym, error) {
	a := &matrix.SparseSym{N: w.N, ColPtr: w.ColPtr, RowInd: w.RowInd, Val: w.Val}
	if needValues {
		if len(a.Val) != len(a.RowInd) {
			return nil, fmt.Errorf("server: %d values for %d stored entries", len(a.Val), len(a.RowInd))
		}
	} else if a.Val == nil {
		// Pattern-only requests (analyze) may omit values entirely.
		a.Val = make([]float64, len(a.RowInd))
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return a, nil
}

// AnalyzeRequest asks for the symbolic analysis of a pattern.
type AnalyzeRequest struct {
	Matrix WireMatrix `json:"matrix"`
}

// AnalyzeResponse reports the analysis and its cache identity.
type AnalyzeResponse struct {
	Pattern    string `json:"pattern"`
	Cached     bool   `json:"cached"`
	N          int    `json:"n"`
	Supernodes int    `json:"supernodes"`
	Blocks     int    `json:"blocks"`
	NnzL       int64  `json:"nnz_l"`
	FactorFlop int64  `json:"factor_flop"`
}

// FactorRequest asks for a numeric factorization.
type FactorRequest struct {
	Matrix WireMatrix `json:"matrix"`
	// Ranks/Workers/GPUs override the server's baseline solver options
	// when positive.
	Ranks   int `json:"ranks,omitempty"`
	Workers int `json:"workers,omitempty"`
	GPUs    int `json:"gpus,omitempty"`
	// DeadlineMillis bounds this request; 0 falls back to the server
	// default.
	DeadlineMillis int64 `json:"deadline_ms,omitempty"`
}

// FactorResponse reports the factorization and the id solves reference.
type FactorResponse struct {
	Factor      string  `json:"factor"` // cache id: pattern + value hash
	Pattern     string  `json:"pattern"`
	Cached      bool    `json:"cached"`
	CPUOnly     bool    `json:"cpu_only"` // true when the breaker routed around devices
	NnzL        int64   `json:"nnz_l"`
	WallSeconds float64 `json:"wall_seconds"`
	GFlops      float64 `json:"gflops,omitempty"`
}

// SolveRequest solves with a previously factored matrix.
type SolveRequest struct {
	Factor string    `json:"factor"`
	B      []float64 `json:"b"`
}

// SolveResponse carries the solution.
type SolveResponse struct {
	X []float64 `json:"x"`
}

// SolveBatchRequest solves many right-hand sides against one factor.
type SolveBatchRequest struct {
	Factor string      `json:"factor"`
	Bs     [][]float64 `json:"bs"`
}

// SolveBatchResponse carries the solutions in request order.
type SolveBatchResponse struct {
	Xs [][]float64 `json:"xs"`
}

// SolveCGRequest runs an iterative solve: conjugate gradients on the posted
// matrix, optionally preconditioned by a blocked IC(k) factor the server
// builds through the engine and caches alongside analyses and factors.
type SolveCGRequest struct {
	Matrix WireMatrix `json:"matrix"`
	B      []float64  `json:"b"`
	// Solver is "cg" (unpreconditioned) or "pcg" (IC(k) preconditioned);
	// default "pcg".
	Solver string `json:"solver,omitempty"`
	// Precision selects the preconditioner factor's storage: "fp64"
	// (default) or "fp32" (float32 storage and wire, fp64 arithmetic,
	// rounded once per finalised block, with transparent fp64 retry on
	// breakdown).
	Precision string `json:"precision,omitempty"`
	// ICLevel is the IC(k) fill level (pcg only; default 0).
	ICLevel int `json:"ic_level,omitempty"`
	// DropTol magnitude-filters the matrix before level expansion.
	DropTol float64 `json:"drop_tol,omitempty"`
	// Rtol is the relative convergence tolerance (0 = 1e-8).
	Rtol float64 `json:"rtol,omitempty"`
	// MaxIter bounds the iteration count (0 = driver default).
	MaxIter int `json:"max_iter,omitempty"`
	// DeadlineMillis bounds this request; 0 falls back to the server
	// default.
	DeadlineMillis int64 `json:"deadline_ms,omitempty"`
}

// SolveCGResponse carries the iterative solution and its convergence record.
type SolveCGResponse struct {
	X          []float64 `json:"x"`
	Iterations int       `json:"iterations"`
	MatVecs    int       `json:"matvecs"`
	Residual   float64   `json:"residual"`
	Converged  bool      `json:"converged"`
	// Precond is the cache id of the IC factor used (pcg only), Cached
	// whether it was served from the LRU, Shift the diagonal shift the
	// incomplete factorization needed (0 when unshifted).
	Precond       string  `json:"precond,omitempty"`
	PrecondCached bool    `json:"precond_cached,omitempty"`
	Shift         float64 `json:"shift,omitempty"`
}

// apiError is the uniform JSON error body.
type apiError struct {
	Error string `json:"error"`
}

// httpError is an error with a chosen status code, produced by the
// pipeline stages and rendered by wrap.
type httpError struct {
	code int
	err  error
	// retryAfter, when > 0, emits a Retry-After header (shed responses).
	retryAfter int
}

func (e *httpError) Error() string { return e.err.Error() }
func (e *httpError) Unwrap() error { return e.err }

// wrap is the endpoint middleware: it tracks the in-flight WaitGroup,
// refuses work while draining, times the request into the latency ring and
// the per-endpoint histogram, and renders errors uniformly.
func (s *Server) wrap(endpoint string, h func(*http.Request) (any, *httpError)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			s.reply(w, endpoint, http.StatusServiceUnavailable, apiError{Error: "server is draining"}, 0)
			return
		}
		s.wg.Add(1)
		defer s.wg.Done()
		start := machine.WallNow()
		body, herr := h(r)
		elapsed := machine.WallSince(start).Seconds()
		s.ring.observe(elapsed)
		s.met.Latency(endpoint).Observe(elapsed)
		if herr != nil {
			s.reply(w, endpoint, herr.code, apiError{Error: herr.err.Error()}, herr.retryAfter)
			return
		}
		s.reply(w, endpoint, http.StatusOK, body, 0)
	}
}

// reply renders one JSON response and records the request counter.
func (s *Server) reply(w http.ResponseWriter, endpoint string, code int, body any, retryAfter int) {
	s.met.Request(endpoint, strconv.Itoa(code)).Inc()
	w.Header().Set("Content-Type", "application/json")
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(body)
}

// handleMetrics serves the server registry as a Prometheus exposition on
// the daemon's own mux (the optional -metrics-addr sidecar listener serves
// the same registry through metrics.Serve).
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var buf bytes.Buffer
	if err := metrics.WriteText(&buf, s.cfg.Registry.Snapshot()); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", metrics.ContentType)
	_, _ = w.Write(buf.Bytes())
}

// admit runs the shared front of the pipeline: request sequencing, chaos
// context shaping, deadline installation, and admission control. On
// success it returns the request context and a done function releasing
// the slot (and any context resources); on failure, the mapped error.
func (s *Server) admit(r *http.Request, deadlineMillis int64) (context.Context, func(), *httpError) {
	seq := int(s.seq.Add(1))
	ctx := r.Context()
	cancels := []context.CancelFunc{}

	if d := deadlineMillis; d > 0 {
		c, cancel := context.WithTimeout(ctx, time.Duration(d)*time.Millisecond)
		ctx, cancels = c, append(cancels, cancel)
	} else if s.cfg.DefaultDeadline > 0 {
		c, cancel := context.WithTimeout(ctx, s.cfg.DefaultDeadline)
		ctx, cancels = c, append(cancels, cancel)
	}
	if s.inj != nil && s.inj.CanceledRequest(seq) {
		// Chaos: this client goes away mid-flight. The cancel fires from
		// a goroutine after a few stall windows so the request is usually
		// admitted and inside the engine when it lands.
		c, cancel := context.WithCancel(ctx)
		ctx, cancels = c, append(cancels, cancel)
		delay := 4 * s.inj.Plan().StallWindow
		go func() {
			machine.Backoff(delay)
			cancel()
		}()
	}
	release := func() {
		for _, c := range cancels {
			c()
		}
	}

	if err := s.adm.enter(ctx); err != nil {
		release()
		if errors.Is(err, errShed) {
			return nil, nil, &httpError{
				code:       http.StatusTooManyRequests,
				err:        err,
				retryAfter: retryAfterSeconds(s.ring, s.adm),
			}
		}
		return nil, nil, s.ctxError(ctx, err)
	}
	if s.inj != nil {
		if d := s.inj.SlowClientDelay(seq); d > 0 {
			machine.Backoff(d)
		}
	}
	done := func() {
		s.adm.leave()
		release()
	}
	// The chaos thrash hook runs after admission so the eviction races
	// the request's own cache lookups, which is the scenario worth
	// testing; seq is pinned here so handlers can thrash their keys.
	ctx = context.WithValue(ctx, ctxKeySeq{}, seq)
	return ctx, done, nil
}

// ctxKeySeq carries the request sequence number for chaos decisions.
type ctxKeySeq struct{}

// thrashFor applies the CacheThrash chaos class to the request's keys.
func (s *Server) thrashFor(ctx context.Context, keys ...string) {
	if s.inj == nil {
		return
	}
	seq, _ := ctx.Value(ctxKeySeq{}).(int)
	if s.inj.CacheThrash(seq) {
		s.cache.thrash(keys...)
	}
}

// ctxError maps a context failure onto the status vocabulary: a deadline
// the server enforced is 504 (the server answers for it), a client that
// went away is 499.
func (s *Server) ctxError(ctx context.Context, err error) *httpError {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) || errors.Is(err, context.DeadlineExceeded) {
		s.met.DeadlineMiss.Inc()
		return &httpError{code: http.StatusGatewayTimeout, err: err}
	}
	s.met.Canceled.Inc()
	return &httpError{code: StatusClientClosedRequest, err: err}
}

// engineError maps a factorization/solve failure onto a status code.
func (s *Server) engineError(ctx context.Context, err error) *httpError {
	switch {
	case errors.Is(err, core.ErrCanceled):
		return s.ctxError(ctx, err)
	case errors.Is(err, core.ErrNotPositiveDefinite):
		return &httpError{code: http.StatusUnprocessableEntity, err: err}
	default:
		return &httpError{code: http.StatusInternalServerError, err: err}
	}
}

// decode parses a JSON request body.
func decode[T any](r *http.Request) (*T, *httpError) {
	var v T
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(&v); err != nil {
		return nil, &httpError{code: http.StatusBadRequest, err: fmt.Errorf("bad request body: %w", err)}
	}
	return &v, nil
}

// analysisFor returns the (cached or freshly computed) symbolic structure
// for a's pattern, pinned — the caller must invoke the release — together
// with a permuted by that structure's ordering. Only the structure is
// cached: it depends on the pattern alone, while the permuted matrix carries
// this request's values, so a hit permutes the posted matrix afresh.
func (s *Server) analysisFor(ctx context.Context, a *matrix.SparseSym, ph string) (*symbolic.Structure, *matrix.SparseSym, func(), bool, *httpError) {
	key := "a:" + ph
	s.thrashFor(ctx, key)
	if v, rel, ok := s.cache.get(key); ok {
		st := v.(*symbolic.Structure)
		pa, err := a.Permute(st.Perm)
		if err != nil {
			rel()
			return nil, nil, nil, false, &httpError{code: http.StatusInternalServerError, err: err}
		}
		return st, pa, rel, true, nil
	}
	st, pa, err := s.analyzeFn(a, s.cfg.Solver)
	if err != nil {
		return nil, nil, nil, false, &httpError{code: http.StatusUnprocessableEntity, err: err}
	}
	// st and pa stay paired even when a concurrent miss cached its own
	// (equal) structure first; the pin is on whichever copy the cache kept.
	_, rel := s.cache.put(key, st, analysisBytes(st))
	return st, pa, rel, false, nil
}

// handleAnalyze serves POST /v1/analyze.
func (s *Server) handleAnalyze(r *http.Request) (any, *httpError) {
	req, herr := decode[AnalyzeRequest](r)
	if herr != nil {
		return nil, herr
	}
	a, err := req.Matrix.toSym(false)
	if err != nil {
		return nil, &httpError{code: http.StatusBadRequest, err: err}
	}
	ctx, done, herr := s.admit(r, 0)
	if herr != nil {
		return nil, herr
	}
	defer done()
	ph := patternHash(a)
	st, _, rel, cached, herr := s.analysisFor(ctx, a, ph)
	if herr != nil {
		return nil, herr
	}
	defer rel()
	return AnalyzeResponse{
		Pattern:    ph,
		Cached:     cached,
		N:          st.N,
		Supernodes: st.NumSupernodes(),
		Blocks:     st.NumBlocks(),
		NnzL:       st.NnzL,
		FactorFlop: st.FactorFlop,
	}, nil
}

// handleFactor serves POST /v1/factor: the full pipeline of admission,
// cache, breaker, retry and engine.
func (s *Server) handleFactor(r *http.Request) (any, *httpError) {
	req, herr := decode[FactorRequest](r)
	if herr != nil {
		return nil, herr
	}
	a, err := req.Matrix.toSym(true)
	if err != nil {
		return nil, &httpError{code: http.StatusBadRequest, err: err}
	}
	ctx, done, herr := s.admit(r, req.DeadlineMillis)
	if herr != nil {
		return nil, herr
	}
	defer done()

	ph := patternHash(a)
	fid := ph + "-" + valueHash(a)
	fkey := "f:" + fid
	s.thrashFor(ctx, fkey)
	if v, rel, ok := s.cache.get(fkey); ok {
		defer rel()
		f := v.(*core.Factor)
		return FactorResponse{Factor: fid, Pattern: ph, Cached: true, NnzL: f.Stats.NnzL}, nil
	}

	st, pa, arel, _, herr := s.analysisFor(ctx, a, ph)
	if herr != nil {
		return nil, herr
	}
	defer arel()

	opt := s.cfg.Solver
	if req.Ranks > 0 {
		opt.Ranks = req.Ranks
	}
	if req.Workers > 0 {
		opt.Workers = req.Workers
	}
	if req.GPUs > 0 {
		opt.GPUsPerNode = req.GPUs
	}
	opt.Context = ctx
	opt.Faults = s.cfg.SolverChaos

	useGPU, probe := s.brk.acquire()
	if !useGPU {
		opt.GPUsPerNode = 0
	}
	f, err := s.factorWithRetry(ctx, st, pa, opt)
	s.brk.result(err, probe)
	if err != nil {
		return nil, s.engineError(ctx, err)
	}
	// The cached Factor outlives this request: drop the request-scoped
	// context and fault plan before anyone else can see it.
	f.Opt.Context = nil
	f.Opt.Faults = nil
	_ = f.CloseMetrics()
	_, frel := s.cache.put(fkey, f, factorBytes(f.Data))
	defer frel()

	resp := FactorResponse{
		Factor:      fid,
		Pattern:     ph,
		CPUOnly:     !useGPU && (s.cfg.Solver.GPUsPerNode > 0 || req.GPUs > 0),
		NnzL:        f.Stats.NnzL,
		WallSeconds: f.Stats.Wall.Seconds(),
	}
	if f.Stats.ModelSeconds > 0 {
		resp.GFlops = float64(f.Stats.FactorFlop) / f.Stats.ModelSeconds / 1e9
	}
	return resp, nil
}

// factorWithRetry runs the engine, absorbing transient-fault failures with
// bounded backoff. The engine already retries transient faults internally;
// this outer loop is the second line of defense for runs that still
// surface ErrTransient.
func (s *Server) factorWithRetry(ctx context.Context, st *symbolic.Structure, pa *matrix.SparseSym, opt core.Options) (*core.Factor, error) {
	backoff := 10 * time.Millisecond
	for attempt := 0; ; attempt++ {
		f, err := s.factorFn(st, pa, opt)
		if err == nil || attempt >= 2 || !errors.Is(err, core.ErrTransient) {
			return f, err
		}
		s.met.Retries.Inc()
		machine.Backoff(backoff)
		backoff *= 2
		if cerr := ctx.Err(); cerr != nil {
			return nil, fmt.Errorf("%w: %v", core.ErrCanceled, cerr)
		}
	}
}

// factorRef resolves a solve request's factor id to a pinned Factor.
func (s *Server) factorRef(id string) (*core.Factor, func(), *httpError) {
	if id == "" {
		return nil, nil, &httpError{code: http.StatusBadRequest, err: errors.New("missing factor id")}
	}
	v, rel, ok := s.cache.get("f:" + id)
	if !ok {
		return nil, nil, &httpError{
			code: http.StatusNotFound,
			err:  fmt.Errorf("factor %s not cached (evicted or never computed); POST /v1/factor again", id),
		}
	}
	return v.(*core.Factor), rel, nil
}

// handleSolve serves POST /v1/solve.
func (s *Server) handleSolve(r *http.Request) (any, *httpError) {
	req, herr := decode[SolveRequest](r)
	if herr != nil {
		return nil, herr
	}
	ctx, done, herr := s.admit(r, 0)
	if herr != nil {
		return nil, herr
	}
	defer done()
	s.thrashFor(ctx, "f:"+req.Factor)
	f, rel, herr := s.factorRef(req.Factor)
	if herr != nil {
		return nil, herr
	}
	defer rel()
	if len(req.B) != f.St.N {
		return nil, &httpError{code: http.StatusBadRequest,
			err: fmt.Errorf("rhs has %d entries, factor is %d×%d", len(req.B), f.St.N, f.St.N)}
	}
	x, err := f.SolveCtx(ctx, req.B)
	if err != nil {
		return nil, s.engineError(ctx, err)
	}
	return SolveResponse{X: x}, nil
}

// precondFor returns the (cached or freshly factored) IC(k) preconditioner
// for a matrix, pinned; the caller must invoke the release. The cache key
// includes the value hash — unlike an analysis, an incomplete factor is a
// numeric object — and the fill level.
func (s *Server) precondFor(ctx context.Context, a *matrix.SparseSym, id string, req *SolveCGRequest) (*precond.ICFactor, func(), bool, *httpError) {
	key := "p:" + id
	s.thrashFor(ctx, key)
	if v, rel, ok := s.cache.get(key); ok {
		return v.(*precond.ICFactor), rel, true, nil
	}
	opt := s.cfg.Solver
	if req.Precision != "" {
		prec, err := core.ParsePrecision(req.Precision)
		if err != nil {
			return nil, nil, false, &httpError{code: http.StatusBadRequest, err: err}
		}
		opt.Precision = prec
	}
	opt.Context = ctx
	opt.Faults = s.cfg.SolverChaos

	useGPU, probe := s.brk.acquire()
	if !useGPU {
		opt.GPUsPerNode = 0
	}
	ic, err := precond.NewIC(a, precond.Options{Level: req.ICLevel, DropTol: req.DropTol, Core: opt})
	s.brk.result(err, probe)
	if err != nil {
		switch {
		case errors.Is(err, precond.ErrBreakdown):
			return nil, nil, false, &httpError{code: http.StatusUnprocessableEntity, err: err}
		default:
			return nil, nil, false, s.engineError(ctx, err)
		}
	}
	// The cached preconditioner outlives this request: drop the
	// request-scoped context and fault plan before anyone else can see it.
	ic.F.Opt.Context = nil
	ic.F.Opt.Faults = nil
	_ = ic.F.CloseMetrics()
	v, rel := s.cache.put(key, ic, ic.Bytes())
	return v.(*precond.ICFactor), rel, false, nil
}

// handleSolveCG serves POST /v1/solvecg: admission, preconditioner cache,
// breaker-guarded incomplete factorization, then the PCG driver under the
// request's deadline.
func (s *Server) handleSolveCG(r *http.Request) (any, *httpError) {
	req, herr := decode[SolveCGRequest](r)
	if herr != nil {
		return nil, herr
	}
	a, err := req.Matrix.toSym(true)
	if err != nil {
		return nil, &httpError{code: http.StatusBadRequest, err: err}
	}
	if len(req.B) != a.N {
		return nil, &httpError{code: http.StatusBadRequest,
			err: fmt.Errorf("rhs has %d entries, matrix is %d×%d", len(req.B), a.N, a.N)}
	}
	solver := req.Solver
	if solver == "" {
		solver = "pcg"
	}
	if solver != "cg" && solver != "pcg" {
		return nil, &httpError{code: http.StatusBadRequest,
			err: fmt.Errorf("unknown solver %q (want cg or pcg)", solver)}
	}
	ctx, done, herr := s.admit(r, req.DeadlineMillis)
	if herr != nil {
		return nil, herr
	}
	defer done()

	resp := SolveCGResponse{}
	kopt := krylov.Options{
		Rtol:    req.Rtol,
		MaxIter: req.MaxIter,
		Ctx:     ctx,
		Metrics: metrics.NewIterMetrics(s.cfg.Registry),
	}
	if solver == "pcg" {
		id := patternHash(a) + "-" + valueHash(a) + "-l" + strconv.Itoa(req.ICLevel)
		ic, rel, cached, herr := s.precondFor(ctx, a, id, req)
		if herr != nil {
			return nil, herr
		}
		defer rel()
		kopt.Precond = ic
		resp.Precond = id
		resp.PrecondCached = cached
		resp.Shift = ic.Shift
	}
	res, err := krylov.Solve(a, req.B, kopt)
	if err != nil {
		switch {
		case errors.Is(err, krylov.ErrIndefinite), errors.Is(err, krylov.ErrNoConvergence):
			return nil, &httpError{code: http.StatusUnprocessableEntity, err: err}
		default:
			return nil, s.ctxError(ctx, err)
		}
	}
	resp.X = res.X
	resp.Iterations = res.Iterations
	resp.MatVecs = res.MatVecs
	resp.Residual = res.Residual
	resp.Converged = res.Converged
	return resp, nil
}

// handleSolveBatch serves POST /v1/solvebatch: many right-hand sides
// against one pinned factor, one admission slot.
func (s *Server) handleSolveBatch(r *http.Request) (any, *httpError) {
	req, herr := decode[SolveBatchRequest](r)
	if herr != nil {
		return nil, herr
	}
	ctx, done, herr := s.admit(r, 0)
	if herr != nil {
		return nil, herr
	}
	defer done()
	s.thrashFor(ctx, "f:"+req.Factor)
	f, rel, herr := s.factorRef(req.Factor)
	if herr != nil {
		return nil, herr
	}
	defer rel()
	for i, b := range req.Bs {
		if len(b) != f.St.N {
			return nil, &httpError{code: http.StatusBadRequest,
				err: fmt.Errorf("rhs %d has %d entries, factor is %d×%d", i, len(b), f.St.N, f.St.N)}
		}
	}
	xs, err := f.SolveMultiCtx(ctx, req.Bs)
	if err != nil {
		return nil, s.engineError(ctx, err)
	}
	return SolveBatchResponse{Xs: xs}, nil
}
