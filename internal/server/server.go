// Package server implements sympackd's service layer: an HTTP/JSON façade
// over the factorization engine with the robustness envelope a long-lived
// daemon needs and a one-shot CLI does not — per-request deadlines wired
// into the engine's cooperative cancellation, a bounded admission queue
// with load shedding, a byte-budgeted LRU cache of Analysis and Factor
// objects keyed by sparsity-pattern hash, and a graceful drain path for
// rolling restarts.
//
// The request pipeline is admission → chaos hooks → cache → engine. Every
// request runs the engine in the shape the operator configured
// (Config.Solver); device trouble is the engine's to absorb (a rank whose
// device dies demotes itself to CPU kernels), so the server only maps
// each failure onto a small, documented status vocabulary (429 shed, 499
// client-canceled, 504 deadline, 422 not SPD, 503 draining, 500 engine
// failure). Every stage is observable through the sympack_server_*
// metric namespace.
package server

import (
	"context"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"sympack/internal/core"
	"sympack/internal/faults"
	"sympack/internal/matrix"
	"sympack/internal/metrics"
)

// Config parameterizes a Server. The zero value is usable: every field
// has a serving default.
type Config struct {
	// InflightCap bounds concurrently executing requests (default 4).
	InflightCap int
	// QueueCap bounds requests waiting for a slot beyond InflightCap;
	// arrivals past it are shed with 429 (default 2×InflightCap).
	QueueCap int
	// CacheBudget bounds the Analysis/Factor cache in bytes
	// (default 256 MiB).
	CacheBudget int64
	// DefaultDeadline bounds requests that specify none (0 = unbounded).
	DefaultDeadline time.Duration
	// Solver is the engine configuration every request runs (ranks,
	// workers, GPUs, ordering...); a request chooses none of it. Context
	// and Faults are always owned by the server.
	Solver core.Options
	// Chaos, when active, injects the server fault classes (slow clients,
	// mid-flight cancellations, cache thrashing) keyed by request
	// sequence number.
	Chaos *faults.Plan
	// SolverChaos, when active, is forwarded to every factorization as
	// its fault plan, composing runtime chaos under the service envelope.
	SolverChaos *faults.Plan
	// Registry receives the server metrics; a fresh registry is created
	// when nil.
	Registry *metrics.Registry
}

func (c Config) withDefaults() Config {
	if c.InflightCap <= 0 {
		c.InflightCap = 4
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 2 * c.InflightCap
	}
	if c.CacheBudget <= 0 {
		c.CacheBudget = 256 << 20
	}
	if c.Registry == nil {
		c.Registry = metrics.NewRegistry()
	}
	return c
}

// Server is the daemon state. Create with New, serve with Start (or mount
// Handler on your own listener), stop with Shutdown.
type Server struct {
	cfg   Config
	met   *metrics.ServerMetrics
	adm   *admission
	cache *lruCache
	inj   *faults.Injector // server-class chaos; nil when inactive
	ring  *latencyRing

	seq      atomic.Int64 // request sequence number, the chaos actor
	draining atomic.Bool
	wg       sync.WaitGroup // in-flight request handlers

	mux *http.ServeMux
	hs  *http.Server
	lis net.Listener

	// factorFn is the engine seam; tests substitute an engine that parks
	// until released, to hold a request in flight.
	factorFn func(p *core.Plan, a *matrix.SparseSym, opt core.Options) (*core.Factor, error)
	// analyzeFn is the symbolic seam.
	analyzeFn func(a *matrix.SparseSym, opt core.Options) (*core.Plan, error)
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	met := metrics.NewServerMetrics(cfg.Registry)
	s := &Server{
		cfg:       cfg,
		met:       met,
		adm:       newAdmission(cfg.InflightCap, cfg.QueueCap, met),
		cache:     newCache(cfg.CacheBudget, met),
		ring:      &latencyRing{},
		factorFn:  (*core.Plan).Factorize,
		analyzeFn: core.Analyze,
	}
	if cfg.Chaos != nil && cfg.Chaos.Active() {
		// Actor streams fold modulo the count, so 1024 gives distinct
		// per-request decision streams for any realistic burst.
		s.inj = faults.New(*cfg.Chaos, 1024)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/analyze", s.wrap("analyze", s.handleAnalyze))
	s.mux.HandleFunc("POST /v1/factor", s.wrap("factor", s.handleFactor))
	s.mux.HandleFunc("POST /v1/solve", s.wrap("solve", s.handleSolve))
	s.mux.HandleFunc("POST /v1/solvebatch", s.wrap("solvebatch", s.handleSolveBatch))
	s.mux.HandleFunc("POST /v1/solvecg", s.wrap("solvecg", s.handleSolveCG))
	s.mux.HandleFunc("GET /healthz", metrics.HealthHandler(s.health))
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Handler returns the daemon's HTTP handler, for tests and embedding.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry returns the metric registry the server publishes into.
func (s *Server) Registry() *metrics.Registry { return s.cfg.Registry }

// Start listens on addr ("host:0" binds an ephemeral port) and serves in
// the background until Shutdown.
func (s *Server) Start(addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.lis = lis
	s.hs = &http.Server{Handler: s.mux}
	go func() { _ = s.hs.Serve(lis) }()
	return nil
}

// Addr returns the bound listen address ("" before Start).
func (s *Server) Addr() string {
	if s.lis == nil {
		return ""
	}
	return s.lis.Addr().String()
}

// Shutdown drains the server: new requests are refused with 503, in-flight
// requests run to completion (bounded by ctx), and the listener closes.
// Safe to call without Start (it just marks the handler draining).
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.met.Draining.Set(1)
	// Wait for admitted requests even when serving through Handler() on
	// an external listener Shutdown cannot see.
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	if s.hs != nil {
		return s.hs.Shutdown(ctx)
	}
	return nil
}

// Health is the /healthz body: the readiness verdict plus the state that
// produced it.
type Health struct {
	OK           bool  `json:"ok"`
	Draining     bool  `json:"draining"`
	Inflight     int   `json:"inflight"`
	InflightCap  int   `json:"inflight_cap"`
	QueueDepth   int   `json:"queue_depth"`
	QueueCap     int   `json:"queue_cap"`
	CacheBytes   int64 `json:"cache_bytes"`
	CacheEntries int   `json:"cache_entries"`
}

// health adapts HealthCheck to the metrics.HealthHandler signature.
func (s *Server) health() (any, bool) {
	h, ok := s.HealthCheck()
	return h, ok
}

// HealthCheck produces the /healthz payload and readiness verdict — also
// the hook a sidecar metrics listener mounts. Not ready means: draining,
// or admission queue saturated (the next arrival would be shed) — the
// states where a load balancer should route elsewhere.
func (s *Server) HealthCheck() (Health, bool) {
	inflight, queued := s.adm.occupancy()
	bytes, entries := s.cache.stats()
	h := Health{
		Draining:     s.draining.Load(),
		Inflight:     inflight,
		InflightCap:  s.cfg.InflightCap,
		QueueDepth:   queued,
		QueueCap:     s.cfg.QueueCap,
		CacheBytes:   bytes,
		CacheEntries: entries,
	}
	h.OK = !h.Draining && queued < s.cfg.QueueCap
	return h, h.OK
}
