// Command sympack2d is the equivalent of the paper's run_sympack2D driver
// (AD/AE §A.2.4): it loads or generates a sparse SPD matrix, runs the
// fan-out Cholesky factorization over the simulated UPC++ ranks, solves
// with the requested number of right-hand sides, and reports timings,
// residuals, and (with -gpu_v) the CPU/GPU workload-distribution statistics
// behind the paper's Fig. 6.
//
// Usage:
//
//	sympack2d -in matrix.rb -nrhs 1 -ordering SCOTCH -ranks 4 -gpus 2
//	sympack2d -gen flan:4 -ranks 8 -ranks-per-node 4 -gpus 4 -gpu_v
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"sympack"
	"sympack/internal/faults"
	"sympack/internal/gpu"
	"sympack/internal/machine"
	"sympack/internal/matrix"
	"sympack/internal/metrics"
	"sympack/internal/ordering"
	"sympack/internal/trace"
)

func main() {
	var (
		in       = flag.String("in", "", "input matrix file (.mtx MatrixMarket or .rb Rutherford-Boeing)")
		genSpec  = flag.String("gen", "", "generate a matrix instead: flan:S, bone:S, thermal:S, laplace2d:S, laplace3d:S (S = integer scale)")
		nrhs     = flag.Int("nrhs", 1, "number of right-hand sides to solve")
		ordName  = flag.String("ordering", "SCOTCH", "fill-reducing ordering: SCOTCH|AMD|RCM|NATURAL")
		formName = flag.String("formulation", "fan-out", "task formulation: fan-out|fan-in|fan-both")
		mapName  = flag.String("mapping", "2d-cyclic", "block→process mapping: 2d-cyclic|1d-cols|subtree")
		solverNm = flag.String("solver", "direct", "solve strategy: direct|cg|pcg")
		precNm   = flag.String("precision", "fp64", "factor storage: fp64|fp32 (fp32 = float32 storage and wire, fp64 arithmetic, rounded once per finalised block; direct solves auto-refine)")
		icLevel  = flag.Int("ic-level", 1, "IC(k) fill level for -solver=pcg")
		rtol     = flag.Float64("rtol", 1e-8, "relative tolerance for -solver=cg|pcg")
		ranks    = flag.Int("ranks", 4, "number of UPC++ processes to simulate")
		workers  = flag.Int("workers", 0, "goroutines per rank running tasks, the rank's own included (0 = SYMPACK_WORKERS env, else GOMAXPROCS/ranks)")
		rpn      = flag.Int("ranks-per-node", 0, "ranks per node (0 = all on one node)")
		gpus     = flag.Int("gpus", 0, "GPUs per node (0 = CPU only)")
		devCap   = flag.Int64("device-mem", 0, "device memory per GPU in MiB (0 = unbounded)")
		fallback = flag.String("fallback", "cpu", "device OOM fallback: cpu|error")
		gpuV     = flag.Bool("gpu_v", false, "print CPU/GPU workload distribution (Fig. 6 data)")
		distSol  = flag.Bool("dist-solve", true, "use the distributed triangular solve")
		seed     = flag.Int64("seed", 1, "generator / RHS seed")
		traceOut = flag.String("trace", "", "write a Chrome trace-event timeline of the factorization to this file")
		chaos    = flag.Int64("chaos", 0, "run under the default chaos fault plan with this seed (0 = off)")
		faultStr = flag.String("faults", "", "explicit fault plan, e.g. drop=0.05,delay=0.1,oom=0.1/20 (uses -chaos or -seed as the plan seed)")
		metAddr  = flag.String("metrics-addr", "", "serve /metrics (Prometheus text) and /healthz (JSON) on this host:port while the run executes (use :0 for an ephemeral port)")
		metHold  = flag.Duration("metrics-hold", 0, "keep the metrics endpoint serving this long after the run completes (for scrapers)")
		report   = flag.String("report", "", "write a machine-readable run report to this JSON file ('auto' = BENCH_sympack2d_<timestamp>.json)")
	)
	flag.Parse()

	a, name, err := loadMatrix(*in, *genSpec, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sympack2d:", err)
		os.Exit(1)
	}
	ord, err := ordering.ParseKind(*ordName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sympack2d:", err)
		os.Exit(1)
	}
	form, err := sympack.ParseFormulation(*formName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sympack2d:", err)
		os.Exit(1)
	}
	bmap, err := sympack.ParseMapping(*mapName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sympack2d:", err)
		os.Exit(1)
	}
	prec, err := sympack.ParsePrecision(*precNm)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sympack2d:", err)
		os.Exit(1)
	}
	opt := sympack.Options{
		Ranks:        *ranks,
		Workers:      *workers,
		RanksPerNode: *rpn,
		GPUsPerNode:  *gpus,
		Ordering:     ord,
		Formulation:  form,
		Mapping:      bmap,
		Precision:    prec,
	}
	if *devCap > 0 {
		opt.DeviceCapacity = *devCap * (1 << 20) / 8
	}
	if *fallback == "error" {
		opt.Fallback = gpu.FallbackError
	}
	var rec *trace.Recorder
	if *traceOut != "" {
		rec = trace.New()
		opt.Trace = rec
	}
	// An explicit -faults spec is seeded by -chaos when given, else by the
	// run seed; -chaos alone selects the default chaos plan.
	plan, err := faults.Resolve(*faultStr, *chaos, *seed, faults.DefaultChaos)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sympack2d:", err)
		os.Exit(1)
	}
	opt.Faults = plan
	opt.MetricsAddr = *metAddr

	fmt.Printf("matrix: %s  n=%d  nnz=%d  ordering=%v  ranks=%d  gpus/node=%d  formulation=%v  mapping=%v\n",
		name, a.N, a.NnzFull(), ord, *ranks, *gpus, form, bmap)
	if plan != nil {
		fmt.Printf("fault injection: %s  (seed %d)\n", plan, plan.Seed)
	}

	switch *solverNm {
	case "direct":
	case "cg", "pcg":
		runIterative(a, opt, *solverNm, *icLevel, *rtol, *nrhs, *seed)
		return
	default:
		fmt.Fprintf(os.Stderr, "sympack2d: unknown solver %q (want direct, cg or pcg)\n", *solverNm)
		os.Exit(1)
	}

	f, err := sympack.Factorize(a, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sympack2d: factorization failed:", err)
		os.Exit(1)
	}
	st := &f.Stats
	if addr := f.MetricsAddr(); addr != "" {
		fmt.Printf("metrics: serving http://%s/metrics and /healthz\n", addr)
	}
	fmt.Printf("factorization: wall=%v  modeled=%.4gs  supernodes=%d  blocks=%d  updates=%d  workers/rank=%d\n",
		st.Wall, st.ModelSeconds, st.Supernodes, st.Blocks, st.Updates, st.Workers)
	fmt.Printf("factor: nnz(L)=%d  flops=%.3g  fill=%.2fx\n",
		st.NnzL, float64(st.FactorFlop), float64(st.NnzL)/float64(a.Nnz()))
	if oom := f.Metrics.Value("sympack_gpu_oom_fallbacks_total"); oom > 0 {
		fmt.Printf("device OOM fallbacks to CPU: %.0f\n", oom)
	}
	factorFaults := sympack.FaultSummary(f.Metrics.Snapshot())
	if factorFaults != "" {
		fmt.Printf("faults injected/recovered: %s\n", factorFaults)
	}

	rng := rand.New(rand.NewSource(*seed + 100))
	for r := 0; r < *nrhs; r++ {
		xTrue := make([]float64, a.N)
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64()
		}
		b := a.MulVec(xTrue)
		var x []float64
		// Timed here: only SolveDistributed fills SolveStats.Wall.
		t0 := machine.WallNow()
		if prec == sympack.PrecFP32 {
			// An fp32 factor alone gives single-precision accuracy;
			// refinement against the fp64 matrix recovers the rest.
			var rel float64
			var sweeps int
			x, rel, sweeps, err = f.SolveRefined(a, b, 1e-14, 5)
			if err == nil {
				fmt.Printf("solve %d: %d refinement sweeps  relative residual=%.3g\n", r, sweeps, rel)
				continue
			}
		} else if *distSol {
			x, err = f.SolveDistributed(b)
		} else {
			x, err = f.Solve(b)
		}
		wall := machine.WallSince(t0)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sympack2d: solve failed:", err)
			os.Exit(1)
		}
		fmt.Printf("solve %d: wall=%v  relative residual=%.3g\n",
			r, wall, sympack.ResidualNorm(a, x, b))
	}

	// A distributed solve counts on the factor's registry, so the line after
	// the solves is cumulative; it is printed when the solves added to it.
	if all := sympack.FaultSummary(f.Metrics.Snapshot()); all != factorFaults {
		fmt.Printf("faults injected/recovered, solves included: %s\n", all)
	}

	if *gpuV {
		printWorkloadSplit(f)
	}

	if *report != "" {
		path, err := metrics.WriteReportFile(*report, f.RunReport("sympack2d", name, a), time.Now())
		if err != nil {
			fmt.Fprintln(os.Stderr, "sympack2d:", err)
			os.Exit(1)
		}
		fmt.Printf("report: %s\n", path)
	}

	if *metHold > 0 && f.MetricsAddr() != "" {
		fmt.Printf("metrics: holding endpoint open for %v\n", *metHold)
		time.Sleep(*metHold)
	}
	_ = f.CloseMetrics()

	if rec != nil {
		fh, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sympack2d:", err)
			os.Exit(1)
		}
		defer fh.Close()
		if err := rec.WriteChromeTrace(fh); err != nil {
			fmt.Fprintln(os.Stderr, "sympack2d:", err)
			os.Exit(1)
		}
		fmt.Printf("\ntrace: %d events written to %s (open in chrome://tracing)\n", rec.Len(), *traceOut)
		fmt.Println("rank utilization (busy fraction of makespan):")
		util := rec.RankUtilization()
		for rank := 0; rank < *ranks; rank++ {
			fmt.Printf("  rank %2d: %5.1f%%\n", rank, 100*util[int32(rank)])
		}
	}
}

// runIterative is the -solver=cg|pcg path: no complete factorization —
// conjugate gradients (optionally through an engine-built IC(k)
// preconditioner, whose build honors the full distributed surface in opt)
// solves each right-hand side.
func runIterative(a *sympack.Matrix, opt sympack.Options, solver string, icLevel int, rtol float64, nrhs int, seed int64) {
	cg := sympack.CGOptions{Rtol: rtol}
	if solver == "pcg" {
		cg.Precond = sympack.PrecondIC
		cg.ICLevel = icLevel
		fmt.Printf("iterative: %s with IC(%d), rtol=%.1g, precision=%v\n", solver, icLevel, rtol, opt.Precision)
	} else {
		fmt.Printf("iterative: %s, rtol=%.1g\n", solver, rtol)
	}
	rng := rand.New(rand.NewSource(seed + 100))
	for r := 0; r < nrhs; r++ {
		xTrue := make([]float64, a.N)
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64()
		}
		b := a.MulVec(xTrue)
		res, err := sympack.SolveCG(a, b, opt, cg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sympack2d: iterative solve failed:", err)
			os.Exit(1)
		}
		fmt.Printf("solve %d: %d iterations  %d matvecs  relative residual=%.3g\n",
			r, res.Iterations, res.MatVecs, sympack.ResidualNorm(a, res.X, b))
	}
}

// loadMatrix reads a file or builds a generated problem.
func loadMatrix(in, genSpec string, seed int64) (*sympack.Matrix, string, error) {
	switch {
	case in != "":
		a, err := matrix.ReadFile(in)
		return a, in, err
	case genSpec != "":
		parts := strings.SplitN(genSpec, ":", 2)
		scale := 3
		if len(parts) == 2 {
			s, err := strconv.Atoi(parts[1])
			if err != nil {
				return nil, "", fmt.Errorf("bad scale in %q", genSpec)
			}
			scale = s
		}
		switch parts[0] {
		case "flan":
			s := 2 + scale
			return sympack.Flan3D(s, s, s, seed), genSpec, nil
		case "bone":
			s := 4 + 2*scale
			return sympack.Bone3D(s, s, s, 0.35, seed), genSpec, nil
		case "thermal":
			s := 8 + 8*scale
			return sympack.Thermal2D(s, s, scale, seed), genSpec, nil
		case "laplace2d":
			s := 8 + 8*scale
			return sympack.Laplace2D(s, s), genSpec, nil
		case "laplace3d":
			s := 3 + scale
			return sympack.Laplace3D(s, s, s), genSpec, nil
		default:
			return nil, "", fmt.Errorf("unknown generator %q", parts[0])
		}
	default:
		return nil, "", fmt.Errorf("one of -in or -gen is required")
	}
}

// printWorkloadSplit prints the Fig. 6 data: per-operation CPU vs GPU call
// counts for rank 0 (representative, as in the paper) and in aggregate.
func printWorkloadSplit(f *sympack.Factor) {
	fmt.Println("\nworkload distribution (rank 0, as in paper Fig. 6):")
	fmt.Printf("%-8s %12s %12s\n", "op", "CPU", "GPU")
	r0 := f.Stats.PerRank[0]
	for op := 0; op < machine.NumOps; op++ {
		fmt.Printf("%-8s %12d %12d\n", machine.Op(op), r0.CPU[op], r0.GPU[op])
	}
	fmt.Println("\nworkload distribution (all ranks):")
	fmt.Printf("%-8s %12s %12s\n", "op", "CPU", "GPU")
	var tot struct{ cpu, gpu [machine.NumOps]int64 }
	for _, s := range f.Stats.PerRank {
		for op := 0; op < machine.NumOps; op++ {
			tot.cpu[op] += s.CPU[op]
			tot.gpu[op] += s.GPU[op]
		}
	}
	for op := 0; op < machine.NumOps; op++ {
		fmt.Printf("%-8s %12d %12d\n", machine.Op(op), tot.cpu[op], tot.gpu[op])
	}
}
