// Command sympackd is the factorization daemon: a long-lived HTTP/JSON
// service over the sparse Cholesky engine with admission control, request
// deadlines, a circuit breaker, a byte-budgeted Analysis/Factor cache and
// graceful drain on SIGTERM — the serving counterpart of the one-shot
// sympack2d CLI.
//
// Usage:
//
//	sympackd -addr :8157 -ranks 4 -cache-mb 256
//	sympackd -addr :8157 -chaos 1 -solver-chaos 1    # chaos soak
//	curl -s localhost:8157/healthz
//
// Endpoints: POST /v1/analyze, /v1/factor, /v1/solve, /v1/solvebatch,
// /v1/solvecg (iterative CG/PCG with a cached IC(k) preconditioner);
// GET /healthz (real readiness: 503 while draining, breaker-open or
// saturated) and /metrics (Prometheus text). See README "Serving".
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sympack/internal/core"
	"sympack/internal/faults"
	"sympack/internal/machine"
	"sympack/internal/metrics"
	"sympack/internal/server"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8157", "HTTP listen address for the API ('host:0' binds an ephemeral port)")
		inflight = flag.Int("inflight", 0, "max concurrently executing requests (0 = default 4)")
		queue    = flag.Int("queue", 0, "max requests waiting for a slot; arrivals beyond are shed with 429 (0 = 2×inflight)")
		cacheMB  = flag.Int64("cache-mb", 256, "Analysis/Factor cache budget in MiB")
		deadline = flag.Duration("deadline", 0, "default per-request deadline for requests that specify none (0 = unbounded)")

		ranks   = flag.Int("ranks", 1, "simulated UPC++ processes per factorization")
		workers = flag.Int("workers", 0, "goroutines per rank running tasks, the rank's own included (0 = SYMPACK_WORKERS env, else GOMAXPROCS/ranks)")
		gpus    = flag.Int("gpus", 0, "GPUs per node (0 = CPU only)")

		brkN  = flag.Int("breaker-threshold", 3, "consecutive device/stall failures that trip the breaker")
		brkCD = flag.Duration("breaker-cooldown", 5*time.Second, "how long the breaker stays open before a half-open probe")

		chaosSeed   = flag.Int64("chaos", 0, "inject server fault classes (slow clients, canceled requests, cache thrash) with this seed (0 = off)")
		chaosSpec   = flag.String("server-faults", "", "explicit server fault plan, e.g. slowclient=0.1,cancelreq=0.05 (seeded by -chaos, default 1)")
		solverSeed  = flag.Int64("solver-chaos", 0, "forward the default runtime chaos plan with this seed to every factorization (0 = off)")
		solverSpec  = flag.String("solver-faults", "", "explicit runtime fault plan forwarded to factorizations (seeded by -solver-chaos, default 1)")
		drainT      = flag.Duration("drain-timeout", 60*time.Second, "how long SIGTERM waits for in-flight requests before giving up")
		metricsAddr = flag.String("metrics-addr", "", "also serve /metrics and /healthz on this sidecar host:port (the main mux always serves both)")
		report      = flag.String("report", "", "write a final machine-readable run report on drain ('auto' = BENCH_sympackd_<timestamp>.json)")
	)
	flag.Parse()
	if err := run(*addr, *inflight, *queue, *cacheMB, *deadline, *ranks, *workers, *gpus,
		*brkN, *brkCD, *chaosSeed, *chaosSpec, *solverSeed, *solverSpec, *drainT, *metricsAddr, *report); err != nil {
		fmt.Fprintln(os.Stderr, "sympackd:", err)
		os.Exit(1)
	}
}

func run(addr string, inflight, queue int, cacheMB int64, deadline time.Duration,
	ranks, workers, gpus, brkN int, brkCD time.Duration,
	chaosSeed int64, chaosSpec string, solverSeed int64, solverSpec string,
	drainT time.Duration, metricsAddr, report string) error {

	chaos, err := faults.Resolve(chaosSpec, chaosSeed, 1, faults.ServerChaos)
	if err != nil {
		return err
	}
	solverChaos, err := faults.Resolve(solverSpec, solverSeed, 1, faults.DefaultChaos)
	if err != nil {
		return err
	}

	s := server.New(server.Config{
		InflightCap:      inflight,
		QueueCap:         queue,
		CacheBudget:      cacheMB << 20,
		DefaultDeadline:  deadline,
		BreakerThreshold: brkN,
		BreakerCooldown:  brkCD,
		Solver:           core.Options{Ranks: ranks, Workers: workers, GPUsPerNode: gpus},
		Chaos:            chaos,
		SolverChaos:      solverChaos,
	})
	if err := s.Start(addr); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "sympackd: serving on http://%s (ranks=%d gpus=%d inflight-cap=%d)\n",
		s.Addr(), ranks, gpus, inflight)
	if chaos != nil {
		fmt.Fprintf(os.Stderr, "sympackd: server chaos active: %s\n", chaos.String())
	}
	if solverChaos != nil {
		fmt.Fprintf(os.Stderr, "sympackd: solver chaos active: %s\n", solverChaos.String())
	}

	var sidecar *metrics.Server
	if metricsAddr != "" {
		sidecar, err = metrics.Serve(metricsAddr, s.Registry().Snapshot, func() (any, bool) {
			h, ok := s.HealthCheck()
			return h, ok
		})
		if err != nil {
			return fmt.Errorf("metrics sidecar: %w", err)
		}
		fmt.Fprintf(os.Stderr, "sympackd: metrics sidecar at http://%s/metrics\n", sidecar.Addr())
	}

	// Drain on SIGTERM/SIGINT: stop admitting, finish in-flight requests,
	// flush the final run report, exit 0.
	sigC := make(chan os.Signal, 1)
	signal.Notify(sigC, syscall.SIGTERM, syscall.SIGINT)
	sig := <-sigC
	fmt.Fprintf(os.Stderr, "sympackd: %v received, draining (timeout %v)\n", sig, drainT)
	ctx, cancel := context.WithTimeout(context.Background(), drainT)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if sidecar != nil {
		_ = sidecar.Close()
	}
	if report != "" {
		// The server's full registry in the standard run-report document,
		// so a daemon's lifetime is greppable alongside the batch benchmarks.
		rep := &metrics.RunReport{Command: "sympackd", Ranks: ranks, Workers: workers, GPUs: gpus,
			Metrics: s.Registry().Snapshot().Series}
		path, err := metrics.WriteReportFile(report, rep, machine.WallNow())
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "sympackd: report written to %s\n", path)
	}
	fmt.Fprintln(os.Stderr, "sympackd: drained cleanly")
	return nil
}
