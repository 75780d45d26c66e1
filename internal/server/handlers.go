package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"sympack/internal/core"
	"sympack/internal/krylov"
	"sympack/internal/machine"
	"sympack/internal/matrix"
	"sympack/internal/metrics"
	"sympack/internal/precond"
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
	// DeadlineMillis bounds this request; 0 falls back to the server
	// default.
	DeadlineMillis int64 `json:"deadline_ms,omitempty"`
}

// FactorResponse reports the factorization and the id solves reference.
type FactorResponse struct {
	Factor      string  `json:"factor"` // cache id: pattern + value hash
	Pattern     string  `json:"pattern"`
	Cached      bool    `json:"cached"`
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
	// ICLevel is the IC(k) fill level (pcg only; default 0, negative is a
	// 400).
	ICLevel int `json:"ic_level,omitempty"`
	// DropTol magnitude-filters the matrix before level expansion
	// (negative is a 400).
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

// analysisFor returns the (cached or freshly computed) plan for a's
// pattern, pinned — the caller must invoke the release. The plan depends on
// the pattern alone, and a factorization reads the posted matrix's values
// through its assembly map, so a hit serves any matrix of the pattern as
// it is.
func (s *Server) analysisFor(ctx context.Context, a *matrix.SparseSym, ph string) (*core.Plan, func(), bool, *httpError) {
	key := "a:" + ph
	s.thrashFor(ctx, key)
	if v, rel, ok := s.cache.get(key); ok {
		return v.(*core.Plan), rel, true, nil
	}
	p, err := s.analyzeFn(a, s.cfg.Solver)
	if err != nil {
		return nil, nil, false, &httpError{code: http.StatusUnprocessableEntity, err: err}
	}
	// When a concurrent miss cached its own plan of the pattern first, the
	// pin is on that one, and this request factors with whichever it got.
	v, rel := s.cache.put(key, p, analysisBytes(p))
	return v.(*core.Plan), rel, false, nil
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
	p, rel, cached, herr := s.analysisFor(ctx, a, ph)
	if herr != nil {
		return nil, herr
	}
	defer rel()
	st := p.Structure()
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
// cache and engine. The engine absorbs faults itself, device death
// included, so a factorization error is final: it is mapped, not retried.
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

	p, arel, _, herr := s.analysisFor(ctx, a, ph)
	if herr != nil {
		return nil, herr
	}
	defer arel()

	opt := s.cfg.Solver
	opt.Context = ctx
	opt.Faults = s.cfg.SolverChaos
	f, err := s.factorFn(p, a, opt)
	if err != nil {
		return nil, s.engineError(ctx, err)
	}
	// The cached Factor outlives this request: drop the request-scoped
	// fault plan before anyone else can see it (the factorization has
	// already dropped the context).
	f.Opt.Faults = nil
	_ = f.CloseMetrics()
	_, frel := s.cache.put(fkey, f, factorBytes(f.Data))
	defer frel()

	resp := FactorResponse{
		Factor:      fid,
		Pattern:     ph,
		NnzL:        f.Stats.NnzL,
		WallSeconds: f.Stats.Wall.Seconds(),
	}
	if f.Stats.ModelSeconds > 0 {
		resp.GFlops = float64(f.Stats.FactorFlop) / f.Stats.ModelSeconds / 1e9
	}
	return resp, nil
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

// handleSolve serves POST /v1/solve: the one-right-hand-side case of
// solve.
func (s *Server) handleSolve(r *http.Request) (any, *httpError) {
	req, herr := decode[SolveRequest](r)
	if herr != nil {
		return nil, herr
	}
	xs, herr := s.solve(r, req.Factor, [][]float64{req.B})
	if herr != nil {
		return nil, herr
	}
	return SolveResponse{X: xs[0]}, nil
}

// handleSolveBatch serves POST /v1/solvebatch: many right-hand sides
// against one pinned factor, one admission slot.
func (s *Server) handleSolveBatch(r *http.Request) (any, *httpError) {
	req, herr := decode[SolveBatchRequest](r)
	if herr != nil {
		return nil, herr
	}
	xs, herr := s.solve(r, req.Factor, req.Bs)
	if herr != nil {
		return nil, herr
	}
	return SolveBatchResponse{Xs: xs}, nil
}

// solve is the body both solve endpoints share: admission, the chaos
// thrash of the factor's key, the pinned factor, the length check of every
// right-hand side, one panel solve of them all, whose column j has the bits
// a solve of bs[j] alone would, and the check that every solution is
// finite.
func (s *Server) solve(r *http.Request, id string, bs [][]float64) ([][]float64, *httpError) {
	ctx, done, herr := s.admit(r, 0)
	if herr != nil {
		return nil, herr
	}
	defer done()
	s.thrashFor(ctx, "f:"+id)
	f, rel, herr := s.factorRef(id)
	if herr != nil {
		return nil, herr
	}
	defer rel()
	for i, b := range bs {
		if len(b) != f.St.N {
			return nil, &httpError{code: http.StatusBadRequest,
				err: fmt.Errorf("rhs %d has %d entries, factor is %d×%d", i, len(b), f.St.N, f.St.N)}
		}
	}
	xs, err := f.SolveMultiCtx(ctx, bs)
	if err != nil {
		return nil, s.engineError(ctx, err)
	}
	// JSON has no Inf or NaN: a solution that overflowed would go out as a
	// 200 with no body.
	for i, x := range xs {
		for _, v := range x {
			if math.IsInf(v, 0) || math.IsNaN(v) {
				return nil, &httpError{code: http.StatusBadRequest,
					err: fmt.Errorf("rhs %d: the solution overflows float64", i)}
			}
		}
	}
	return xs, nil
}

// precondID names the IC(k) preconditioner of a matrix: its pattern and
// value hashes — unlike an analysis, an incomplete factor is a numeric
// object — and every option that changes the factor: the fill level and
// the drop tolerance's exact value.
func precondID(a *matrix.SparseSym, opt precond.Options) string {
	return patternHash(a) + "-" + valueHash(a) + "-l" + strconv.Itoa(opt.Level) +
		"-d" + strconv.FormatFloat(opt.DropTol, 'g', -1, 64)
}

// precondFor returns the (cached or freshly factored) IC(k) preconditioner
// id names, pinned; the caller must invoke the release.
func (s *Server) precondFor(ctx context.Context, a *matrix.SparseSym, id string, opt precond.Options) (*precond.ICFactor, func(), bool, *httpError) {
	key := "p:" + id
	s.thrashFor(ctx, key)
	if v, rel, ok := s.cache.get(key); ok {
		return v.(*precond.ICFactor), rel, true, nil
	}
	opt.Core.Context = ctx
	opt.Core.Faults = s.cfg.SolverChaos
	ic, err := precond.NewIC(a, opt)
	if err != nil {
		switch {
		case errors.Is(err, precond.ErrBreakdown), errors.Is(err, precond.ErrAnalysis):
			return nil, nil, false, &httpError{code: http.StatusUnprocessableEntity, err: err}
		default:
			return nil, nil, false, s.engineError(ctx, err)
		}
	}
	// The cached preconditioner outlives this request: drop the
	// request-scoped fault plan before anyone else can see it (the
	// factorization has already dropped the context).
	ic.F.Opt.Faults = nil
	_ = ic.F.CloseMetrics()
	v, rel := s.cache.put(key, ic, ic.Bytes())
	return v.(*precond.ICFactor), rel, false, nil
}

// handleSolveCG serves POST /v1/solvecg: admission, preconditioner cache,
// incomplete factorization, then the PCG driver under the request's
// deadline.
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
	// The analysis clamps a negative level or tolerance to 0, so either
	// would cache the same factor under a second key; math.Abs folds a
	// drop_tol of -0, which passes the check, onto 0 for the same reason.
	if req.ICLevel < 0 || req.DropTol < 0 {
		return nil, &httpError{code: http.StatusBadRequest,
			err: fmt.Errorf("ic_level %d and drop_tol %g must be non-negative", req.ICLevel, req.DropTol)}
	}
	popt := precond.Options{Level: req.ICLevel, DropTol: math.Abs(req.DropTol), Core: s.cfg.Solver}
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
		id := precondID(a, popt)
		ic, rel, cached, herr := s.precondFor(ctx, a, id, popt)
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
