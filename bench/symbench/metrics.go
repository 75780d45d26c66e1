package main

// metricDef names one metric the benchmark emits. BENCHMARK.json lists the
// same names, units, directions and bounds; TestManifestMatchesTables keeps
// the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what a user of the solver sees. Every workload emits every
// one of them, and none can read 0:
//
//	solution_s  time to a first checked solution for a matrix not seen
//	            before (analysis + numeric factorization + solve); on
//	            laplace_reuse_pool the analysis is part of set-up, so it is
//	            shift + factorization + 8-RHS solve; on serve_sessions it is
//	            the cold /v1/factor plus the first /v1/solve of a pattern
//	factor_s    numeric factorization when the analysis already exists
//	            (Analysis.Factorize; /v1/factor on a seen pattern with new
//	            values, the analysis-cache hit)
//	solve_s     one solve call against an existing factor (/v1/solve
//	            against a cached factor)
//
// Timings are medians over the ops of a run; setup_s is the median of
// several complete set-ups. The timing bounds are the widest the contract
// allows because that is what the shared 2-core reference host resolves:
// single runs of unchanged code spread by up to a fifth (interquartile, as a
// share of the median). The allocation metrics repeat to a thousandth at one
// seed; 0.08 is three times their spread across seeds on thermal_w1, whose
// structure the seed draws.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"solution_s", "s", "lower", 0.25},
	{"factor_s", "s", "lower", 0.25},
	{"solve_s", "s", "lower", 0.25},
	{"alloc_mb_per_op", "MiB", "lower", 0.08},
	{"allocs_per_op", "count", "lower", 0.08},
	{"ops_per_s", "1/s", "higher", 0.25},
}

// perLayer is what the traced pass reports, layer by layer, timed from
// outside by calling each layer's exported functions. A metric a workload
// does not exercise reads 0 there (server.* on the direct workloads,
// core.solve_dist_s off laplace_r4, core.overhead_s off the Workers-1
// workloads).
var perLayer = []metricDef{
	{Name: "gen.build_s", Unit: "s", Better: "lower"},

	{Name: "ordering.compute_s", Unit: "s", Better: "lower"},
	{Name: "ordering.alloc_mb", Unit: "MiB", Better: "lower"},
	{Name: "etree.compute_s", Unit: "s", Better: "lower"},
	{Name: "matrix.permute_s", Unit: "s", Better: "lower"},
	{Name: "symbolic.analyze_s", Unit: "s", Better: "lower"},
	{Name: "symbolic.self_s", Unit: "s", Better: "lower"},
	{Name: "symbolic.alloc_mb", Unit: "MiB", Better: "lower"},
	{Name: "symbolic.allocs", Unit: "count", Better: "lower"},

	{Name: "symbolic.taskgraph_s", Unit: "s", Better: "lower"},
	{Name: "symbolic.supernodes", Unit: "count", Better: "lower"},
	{Name: "symbolic.blocks", Unit: "count", Better: "lower"},
	{Name: "symbolic.updates", Unit: "count", Better: "lower"},
	{Name: "symbolic.nnz_l", Unit: "count", Better: "lower"},
	{Name: "symbolic.factor_flop", Unit: "flop", Better: "lower"},

	{Name: "blas.replay_s", Unit: "s", Better: "lower"},
	{Name: "blas.replay_gflops", Unit: "GF/s", Better: "higher"},
	{Name: "blas.peak_gflops", Unit: "GF/s", Better: "higher"},
	{Name: "blas.potrf_calls", Unit: "count", Better: "lower"},
	{Name: "blas.trsm_calls", Unit: "count", Better: "lower"},
	{Name: "blas.syrk_calls", Unit: "count", Better: "lower"},
	{Name: "blas.gemm_calls", Unit: "count", Better: "lower"},
	{Name: "blas.computed_mb", Unit: "MiB", Better: "lower"},
	{Name: "blas.flop_per_byte", Unit: "flop/B", Better: "higher"},

	{Name: "core.factor_s", Unit: "s", Better: "lower"},
	{Name: "core.kernel_share", Unit: "ratio", Better: "higher"},
	{Name: "core.overhead_s", Unit: "s", Better: "lower"},
	{Name: "baseline.factor_s", Unit: "s", Better: "lower"},
	{Name: "core.vs_baseline", Unit: "ratio", Better: "lower"},
	{Name: "core.factor_alloc_mb", Unit: "MiB", Better: "lower"},
	{Name: "core.factor_allocs", Unit: "count", Better: "lower"},
	{Name: "core.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "core.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "core.heap_after_mb", Unit: "MiB", Better: "lower"},
	{Name: "core.tasks_total", Unit: "count", Better: "lower"},
	{Name: "core.dep_decrements", Unit: "count", Better: "lower"},
	{Name: "core.updates_parked", Unit: "count", Better: "lower"},
	{Name: "core.rtq_peak", Unit: "count", Better: "lower"},
	{Name: "core.worker_waits", Unit: "count", Better: "lower"},
	{Name: "core.backoff_waits", Unit: "count", Better: "lower"},

	{Name: "upcxx.signals_sent", Unit: "count", Better: "lower"},
	{Name: "upcxx.rma_gets", Unit: "count", Better: "lower"},
	{Name: "upcxx.rma_get_mb", Unit: "MiB", Better: "lower"},
	{Name: "upcxx.progress_iterations", Unit: "count", Better: "lower"},
	{Name: "upcxx.transfer_retries", Unit: "count", Better: "lower"},
	{Name: "core.rerequests", Unit: "count", Better: "lower"},

	{Name: "core.solve_s", Unit: "s", Better: "lower"},
	{Name: "core.solve_allocs", Unit: "count", Better: "lower"},
	{Name: "core.solve_multi_s", Unit: "s", Better: "lower"},
	{Name: "core.solve_dist_s", Unit: "s", Better: "lower"},
	{Name: "matrix.mulvec_s", Unit: "s", Better: "lower"},

	// The serving numbers ISSUE 11 named as end-to-end metrics 7–10. They
	// exist only on serve_sessions, and an end-to-end metric must be emitted
	// (non-zero) by every workload, so they live here under their original
	// names; solution_s / factor_s / solve_s carry the same three cache
	// tiers on serve_sessions.
	{Name: "serve_rps", Unit: "1/s", Better: "higher"},
	{Name: "cold_factor_ms", Unit: "ms", Better: "lower"},
	{Name: "refactor_ms", Unit: "ms", Better: "lower"},
	{Name: "cached_solve_ms", Unit: "ms", Better: "lower"},

	{Name: "server.factor_hit_ms", Unit: "ms", Better: "lower"},
	{Name: "server.solve_inproc_ms", Unit: "ms", Better: "lower"},
	{Name: "server.wire_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "server.cached_solve_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "server.req_body_mb", Unit: "MiB", Better: "lower"},
	{Name: "server.cache_hits", Unit: "count", Better: "higher"},
	{Name: "server.cache_misses", Unit: "count", Better: "lower"},
	{Name: "server.cache_evictions", Unit: "count", Better: "lower"},
	{Name: "server.shed", Unit: "count", Better: "lower"},
	{Name: "server.queue_peak", Unit: "count", Better: "lower"},
	// Relative residual of a solve against a refactored (seen pattern, new
	// values) factor, checked against the matrix the client posted: the
	// known failing check of bench/README.md, as a number.
	{Name: "server.refactor_residual", Unit: "ratio", Better: "lower"},

	{Name: "failed_ops_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
}

// workloadDef is one named set of inputs; Why is recorded in BENCHMARK.json.
type workloadDef struct {
	Name string
	Why  string
}

var workloads = []workloadDef{
	{"flan_w1", "Flan3D(14^3), 1 rank x 1 worker: dense supernodes, kernel-bound; internal/blas does most of the work, the plain single-threaded baseline"},
	{"thermal_w1", "Thermal2D(256^2), 1x1: 28k thin supernodes, overhead-bound; ordering, symbolic, engine bookkeeping and allocation dominate, blas is under a quarter"},
	{"laplace_r4", "Laplace3D(24^3) on 4 ranks with a distributed solve: the only workload where upcxx signals, Rget, progress and solve_dist.go run, the paper's fan-out protocol"},
	{"laplace_reuse_pool", "Laplace3D(24^3), analyze once then shift-factor-solve 8 RHS on 1 rank x 2 workers: the PEXSI shape, the worker-pool loop and batched solves"},
	{"serve_sessions", "in-process sympackd, 2 closed-loop clients, per pattern cold factor, refactors, cached solves and a factor-cache hit: decode, hash, cache and encode beside the engine"},
}

// unitOf returns the unit of a metric of either table.
func unitOf(name string) string {
	for _, tab := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range tab {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}
