// Command sympack2d is the equivalent of the paper's run_sympack2D driver
// (AD/AE §A.2.4) and the project's one solver CLI: it loads or generates a
// sparse SPD matrix, runs the fan-out Cholesky factorization over the
// simulated UPC++ ranks (or loads a saved factor), solves with the
// requested right-hand sides, and reports timings, residuals, and (with
// -gpu_v) the CPU/GPU workload-distribution statistics behind the paper's
// Fig. 6.
//
// Usage:
//
//	sympack2d -in matrix.rb -nrhs 1 -ordering SCOTCH -ranks 4 -gpus 2
//	sympack2d -gen flan:4 -ranks 8 -ranks-per-node 4 -gpus 4 -gpu_v
//	sympack2d -in system.mtx -b rhs.txt -o x.txt -refine
//	sympack2d -in system.mtx -b rhs.txt -o x.txt -solver cg -rtol 1e-10
//	sympack2d -in system.rb -save-factor system.spkf          # factor once
//	sympack2d -load-factor system.spkf -b rhs.txt -o x.txt    # reuse it
//	sympack2d -in system.mtx -selinv-diag diag.txt            # diag(A⁻¹)
//
// Vector files (-b, -o, -selinv-diag) hold one value per line; lines
// starting with # are comments.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"sympack"
	"sympack/internal/faults"
	"sympack/internal/gen"
	"sympack/internal/gpu"
	"sympack/internal/machine"
	"sympack/internal/matrix"
	"sympack/internal/metrics"
	"sympack/internal/ordering"
	"sympack/internal/trace"
)

// config holds the parsed command line.
type config struct {
	in, gen, ordering, formulation, mapping, solver, precision, fallback string
	trace, faults, metricsAddr, report                                   string
	b, o, saveFactor, loadFactor, selinvDiag                             string
	nrhs, icLevel, ranks, workers, ranksPerNode, gpus                    int
	deviceMem, seed, chaos                                               int64
	rtol                                                                 float64
	gpuV, distSolve, refine                                              bool
	metricsHold                                                          time.Duration
}

func main() {
	var c config
	register(flag.CommandLine, &c)
	flag.Parse()
	if err := run(c, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sympack2d:", err)
		os.Exit(1)
	}
}

// register declares the command's flags on fs, bound to c.
func register(fs *flag.FlagSet, c *config) {
	fs.StringVar(&c.in, "in", "", "input matrix file (.mtx MatrixMarket or .rb Rutherford-Boeing)")
	fs.StringVar(&c.gen, "gen", "", "generate a matrix instead: kind[:S] with kind flan|bone|thermal|laplace2d|laplace3d|random and integer scale S ≥ 1 (default 3), as matgen -kind/-scale")
	fs.IntVar(&c.nrhs, "nrhs", 1, "number of random right-hand sides to solve (b = A·x, x seeded by -seed)")
	fs.StringVar(&c.ordering, "ordering", "SCOTCH", "fill-reducing ordering of the direct factorization: SCOTCH|AMD|RCM|NATURAL (pcg's IC(k) always orders naturally)")
	fs.StringVar(&c.formulation, "formulation", "fan-out", "task formulation: fan-out|fan-in|fan-both")
	fs.StringVar(&c.mapping, "mapping", "2d-cyclic", "block→process mapping: 2d-cyclic|1d-cols|subtree")
	fs.StringVar(&c.solver, "solver", "direct", "solve strategy: direct|cg|pcg")
	fs.StringVar(&c.precision, "precision", "fp64", "factor storage: fp64|fp32 (fp32 = float32 storage and wire, fp64 arithmetic, rounded once per finalised block; direct solves auto-refine)")
	fs.IntVar(&c.icLevel, "ic-level", 1, "IC(k) fill level for -solver=pcg")
	fs.Float64Var(&c.rtol, "rtol", 1e-8, "relative tolerance for -solver=cg|pcg")
	fs.IntVar(&c.ranks, "ranks", 4, "number of UPC++ processes to simulate")
	fs.IntVar(&c.workers, "workers", 0, "goroutines per rank running tasks, the rank's own included (0 = SYMPACK_WORKERS env, else GOMAXPROCS/ranks)")
	fs.IntVar(&c.ranksPerNode, "ranks-per-node", 0, "ranks per node (0 = all on one node)")
	fs.IntVar(&c.gpus, "gpus", 0, "GPUs per node (0 = CPU only)")
	fs.Int64Var(&c.deviceMem, "device-mem", 0, "device memory per GPU in MiB (0 = unbounded)")
	fs.StringVar(&c.fallback, "fallback", "cpu", "device OOM fallback: cpu|error")
	fs.BoolVar(&c.gpuV, "gpu_v", false, "print CPU/GPU workload distribution (Fig. 6 data)")
	fs.BoolVar(&c.distSolve, "dist-solve", true, "use the distributed triangular solve")
	fs.Int64Var(&c.seed, "seed", 1, "generator / RHS seed")
	fs.StringVar(&c.trace, "trace", "", "write a Chrome trace-event timeline of the factorization to this file")
	fs.Int64Var(&c.chaos, "chaos", 0, "run under the default chaos fault plan with this seed (0 = off)")
	fs.StringVar(&c.faults, "faults", "", "explicit fault plan, e.g. drop=0.05,delay=0.1,oom=0.1/20 (uses -chaos or -seed as the plan seed)")
	fs.StringVar(&c.metricsAddr, "metrics-addr", "", "serve /metrics (Prometheus text) and /healthz (JSON) on this host:port while the run executes (use :0 for an ephemeral port)")
	fs.DurationVar(&c.metricsHold, "metrics-hold", 0, "keep the metrics endpoint serving this long after the run completes (for scrapers)")
	fs.StringVar(&c.report, "report", "", "write a machine-readable run report to this JSON file ('auto' = BENCH_sympack2d_<timestamp>.json)")
	fs.StringVar(&c.b, "b", "", "right-hand side file, solved instead of the -nrhs random ones")
	fs.StringVar(&c.o, "o", "", "write the solution of the first right-hand side to this file")
	fs.BoolVar(&c.refine, "refine", false, "apply iterative refinement (needs the matrix)")
	fs.StringVar(&c.saveFactor, "save-factor", "", "write the factor to this file")
	fs.StringVar(&c.loadFactor, "load-factor", "", "load a saved factor instead of factoring (the matrix becomes optional)")
	fs.StringVar(&c.selinvDiag, "selinv-diag", "", "write diag(A⁻¹) to this file (selected inversion)")
}

// run executes one invocation, writing its report lines to out.
func run(c config, out io.Writer) error {
	if c.b != "" && c.nrhs > 1 {
		return errors.New("-b supplies one right-hand side; it cannot be combined with -nrhs > 1")
	}
	if c.loadFactor != "" && (c.gpuV || c.trace != "" || c.report != "" || c.metricsAddr != "") {
		return errors.New("-gpu_v, -trace, -report and -metrics-addr describe a factorization; -load-factor runs none")
	}
	opt, err := options(c)
	if err != nil {
		return err
	}
	var a *sympack.Matrix
	name := c.in
	if c.loadFactor == "" || c.in != "" || c.gen != "" {
		if a, name, err = loadMatrix(c.in, c.gen, c.seed); err != nil {
			return err
		}
		fmt.Fprintf(out, "matrix: %s  n=%d  nnz=%d  ordering=%v  ranks=%d  gpus/node=%d  formulation=%v  mapping=%v\n",
			name, a.N, a.NnzFull(), opt.Ordering, c.ranks, c.gpus, opt.Formulation, opt.Mapping)
	}
	if opt.Faults != nil {
		fmt.Fprintf(out, "fault injection: %s  (seed %d)\n", opt.Faults, opt.Faults.Seed)
	}

	switch c.solver {
	case "direct":
	case "cg", "pcg":
		if a == nil {
			return fmt.Errorf("-solver=%s needs the matrix (-in or -gen)", c.solver)
		}
		return runIterative(c, a, opt, out)
	default:
		return fmt.Errorf("unknown solver %q (want direct, cg or pcg)", c.solver)
	}

	var f *sympack.Factor
	if c.loadFactor != "" {
		if f, err = loadFactor(c.loadFactor); err != nil {
			return err
		}
		fmt.Fprintf(out, "loaded factor: %s  n=%d  supernodes=%d\n", c.loadFactor, f.St.N, f.St.NumSupernodes())
		f.Metrics = metrics.NewRegistry() // where its solves count
		if a != nil && a.N != f.St.N {
			return fmt.Errorf("matrix n=%d does not match the loaded factor's n=%d", a.N, f.St.N)
		}
	} else {
		if f, err = sympack.Factorize(a, opt); err != nil {
			return fmt.Errorf("factorization failed: %w", err)
		}
		defer f.CloseMetrics()
		printFactorization(out, f, a)
	}
	factorFaults := sympack.FaultSummary(f.Metrics.Snapshot())
	if factorFaults != "" {
		fmt.Fprintf(out, "faults injected/recovered: %s\n", factorFaults)
	}

	if c.saveFactor != "" {
		if err := writeFile(c.saveFactor, f.Save); err != nil {
			return err
		}
		fmt.Fprintf(out, "factor saved to %s\n", c.saveFactor)
	}
	if c.selinvDiag != "" {
		si, err := f.SelectedInverse()
		if err != nil {
			return err
		}
		if err := writeVector(c.selinvDiag, si.Diag()); err != nil {
			return err
		}
		fmt.Fprintf(out, "diag(A⁻¹) written to %s (%d selected entries)\n", c.selinvDiag, si.Nnz())
	}
	if a == nil && c.b == "" {
		if c.saveFactor == "" && c.selinvDiag == "" {
			return errors.New("a loaded factor needs -b, -in or -gen to solve, or -save-factor or -selinv-diag")
		}
		return nil // factor-only invocation
	}

	refine := c.refine || opt.Precision == sympack.PrecFP32
	if refine && a == nil {
		// An fp32 factor alone gives single-precision accuracy; refinement
		// against the fp64 matrix recovers the rest, and needs that matrix.
		return errors.New("-refine and -precision fp32 need the matrix (-in or -gen) for residuals")
	}
	bs, err := rightHandSides(c, a, f.St.N)
	if err != nil {
		return err
	}
	for r, b := range bs {
		var x []float64
		// Timed here: only SolveDistributed fills SolveStats.Wall.
		t0 := machine.WallNow()
		switch {
		case refine:
			var rel float64
			var sweeps int
			if x, rel, sweeps, err = f.SolveRefined(a, b, 1e-14, 5); err != nil {
				return fmt.Errorf("solve failed: %w", err)
			}
			fmt.Fprintf(out, "solve %d: %d refinement sweeps  relative residual=%.3g\n", r, sweeps, rel)
		case c.distSolve:
			x, err = f.SolveDistributed(b)
		default:
			x, err = f.Solve(b)
		}
		if err != nil {
			return fmt.Errorf("solve failed: %w", err)
		}
		if !refine {
			fmt.Fprintf(out, "solve %d: wall=%v", r, machine.WallSince(t0))
			if a != nil {
				fmt.Fprintf(out, "  relative residual=%.3g", sympack.ResidualNorm(a, x, b))
			}
			fmt.Fprintln(out)
		}
		if r == 0 && c.o != "" {
			if err := writeVector(c.o, x); err != nil {
				return err
			}
		}
	}

	// A distributed solve counts on the factor's registry, so the line after
	// the solves is cumulative; it is printed when the solves added to it.
	if all := sympack.FaultSummary(f.Metrics.Snapshot()); all != factorFaults {
		fmt.Fprintf(out, "faults injected/recovered, solves included: %s\n", all)
	}
	if c.gpuV {
		printWorkloadSplit(out, f)
	}
	if c.report != "" {
		path, err := metrics.WriteReportFile(c.report, f.RunReport("sympack2d", name, a), time.Now())
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "report: %s\n", path)
	}
	if c.metricsHold > 0 && f.MetricsAddr() != "" {
		fmt.Fprintf(out, "metrics: holding endpoint open for %v\n", c.metricsHold)
		time.Sleep(c.metricsHold)
	}
	if opt.Trace != nil {
		return writeTrace(out, c.trace, opt.Trace, c.ranks)
	}
	return nil
}

// options turns the command line into solver options.
func options(c config) (sympack.Options, error) {
	ord, errOrd := ordering.ParseKind(c.ordering)
	form, errForm := sympack.ParseFormulation(c.formulation)
	bmap, errMap := sympack.ParseMapping(c.mapping)
	prec, errPrec := sympack.ParsePrecision(c.precision)
	fallback, errFallback := gpu.ParseFallback(c.fallback)
	// An explicit -faults spec is seeded by -chaos when given, else by the
	// run seed; -chaos alone selects the default chaos plan.
	plan, errPlan := faults.Resolve(c.faults, c.chaos, c.seed, faults.DefaultChaos)
	if err := errors.Join(errOrd, errForm, errMap, errPrec, errFallback, errPlan); err != nil {
		return sympack.Options{}, err
	}
	opt := sympack.Options{
		Ranks:        c.ranks,
		Workers:      c.workers,
		RanksPerNode: c.ranksPerNode,
		GPUsPerNode:  c.gpus,
		Ordering:     ord,
		Formulation:  form,
		Mapping:      bmap,
		Precision:    prec,
		Fallback:     fallback,
		Faults:       plan,
		MetricsAddr:  c.metricsAddr,
	}
	if c.deviceMem > 0 {
		opt.DeviceCapacity = c.deviceMem * (1 << 20) / 8
	}
	if c.trace != "" {
		opt.Trace = trace.New()
	}
	return opt, nil
}

// printFactorization prints what a factorization cost and produced.
func printFactorization(out io.Writer, f *sympack.Factor, a *sympack.Matrix) {
	st := &f.Stats
	if addr := f.MetricsAddr(); addr != "" {
		fmt.Fprintf(out, "metrics: serving http://%s/metrics and /healthz\n", addr)
	}
	fmt.Fprintf(out, "factorization: wall=%v  modeled=%.4gs  supernodes=%d  blocks=%d  updates=%d  workers/rank=%d\n",
		st.Wall, st.ModelSeconds, st.Supernodes, st.Blocks, st.Updates, st.Workers)
	fmt.Fprintf(out, "factor: nnz(L)=%d  flops=%.3g  fill=%.2fx\n",
		st.NnzL, float64(st.FactorFlop), float64(st.NnzL)/float64(a.Nnz()))
	if oom := f.Metrics.Value("sympack_gpu_oom_fallbacks_total"); oom > 0 {
		fmt.Fprintf(out, "device OOM fallbacks to CPU: %.0f\n", oom)
	}
}

// rightHandSides returns the -b vector, else -nrhs random b = A·x.
func rightHandSides(c config, a *sympack.Matrix, n int) ([][]float64, error) {
	if c.b != "" {
		b := make([]float64, n)
		return [][]float64{b}, readVector(c.b, b)
	}
	rng := rand.New(rand.NewSource(c.seed + 100))
	bs := make([][]float64, c.nrhs)
	for r := range bs {
		xTrue := make([]float64, a.N)
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64()
		}
		bs[r] = a.MulVec(xTrue)
	}
	return bs, nil
}

// runIterative is the -solver=cg|pcg path: no complete factorization —
// conjugate gradients (optionally through an engine-built IC(k)
// preconditioner, whose build honors the full distributed surface in opt)
// solves each right-hand side.
func runIterative(c config, a *sympack.Matrix, opt sympack.Options, out io.Writer) error {
	cg := sympack.CGOptions{Rtol: c.rtol}
	if c.solver == "pcg" {
		cg.Precond = sympack.PrecondIC
		cg.ICLevel = c.icLevel
		fmt.Fprintf(out, "iterative: %s with IC(%d), rtol=%.1g, precision=%v\n", c.solver, c.icLevel, c.rtol, opt.Precision)
	} else {
		fmt.Fprintf(out, "iterative: %s, rtol=%.1g\n", c.solver, c.rtol)
	}
	bs, err := rightHandSides(c, a, a.N)
	if err != nil {
		return err
	}
	for r, b := range bs {
		res, err := sympack.SolveCG(a, b, opt, cg)
		if err != nil {
			return fmt.Errorf("iterative solve failed: %w", err)
		}
		fmt.Fprintf(out, "solve %d: %d iterations  %d matvecs  relative residual=%.3g\n",
			r, res.Iterations, res.MatVecs, sympack.ResidualNorm(a, res.X, b))
		if r == 0 && c.o != "" {
			if err := writeVector(c.o, res.X); err != nil {
				return err
			}
		}
	}
	return nil
}

// loadMatrix reads a file or builds a generated problem from kind[:S].
func loadMatrix(in, genSpec string, seed int64) (*sympack.Matrix, string, error) {
	switch {
	case in != "":
		a, err := matrix.ReadFile(in)
		return a, in, err
	case genSpec != "":
		kind, s, hasScale := strings.Cut(genSpec, ":")
		scale := 3
		if hasScale {
			v, err := strconv.Atoi(s)
			if err != nil {
				return nil, "", fmt.Errorf("bad scale in %q", genSpec)
			}
			scale = v
		}
		a, err := gen.Build(kind, scale, seed)
		return a, genSpec, err
	default:
		return nil, "", errors.New("one of -in or -gen is required")
	}
}

// loadFactor reads a factor written by -save-factor.
func loadFactor(path string) (*sympack.Factor, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	return sympack.LoadFactor(fh)
}

// readVector loads one float per line into dst; blank lines and lines
// starting with # are skipped, and the count must equal len(dst).
func readVector(path string, dst []float64) error {
	fh, err := os.Open(path)
	if err != nil {
		return err
	}
	defer fh.Close()
	sc := bufio.NewScanner(fh)
	i := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if i >= len(dst) {
			return fmt.Errorf("%s: more than %d values", path, len(dst))
		}
		v, err := strconv.ParseFloat(line, 64)
		if err != nil {
			return fmt.Errorf("%s line %d: %v", path, i+1, err)
		}
		dst[i] = v
		i++
	}
	if i != len(dst) {
		return fmt.Errorf("%s: %d values, want %d", path, i, len(dst))
	}
	return sc.Err()
}

// writeVector stores one float per line at full precision.
func writeVector(path string, v []float64) error {
	return writeFile(path, func(w io.Writer) error {
		bw := bufio.NewWriter(w)
		for _, x := range v {
			fmt.Fprintf(bw, "%.17g\n", x)
		}
		return bw.Flush()
	})
}

// writeFile creates path, fills it with write and closes it.
func writeFile(path string, write func(io.Writer) error) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(fh); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}

// writeTrace writes the factorization's Chrome trace and prints each
// rank's busy fraction.
func writeTrace(out io.Writer, path string, rec *trace.Recorder, ranks int) error {
	if err := writeFile(path, rec.WriteChromeTrace); err != nil {
		return err
	}
	fmt.Fprintf(out, "\ntrace: %d events written to %s (open in chrome://tracing)\n", rec.Len(), path)
	fmt.Fprintln(out, "rank utilization (busy fraction of makespan):")
	util := rec.RankUtilization()
	for rank := 0; rank < ranks; rank++ {
		fmt.Fprintf(out, "  rank %2d: %5.1f%%\n", rank, 100*util[int32(rank)])
	}
	return nil
}

// printWorkloadSplit prints the Fig. 6 data: per-operation CPU vs GPU call
// counts for rank 0 (representative, as in the paper) and in aggregate.
func printWorkloadSplit(out io.Writer, f *sympack.Factor) {
	show := func(title string, cpu, gpu [machine.NumOps]int64) {
		fmt.Fprintf(out, "\nworkload distribution (%s):\n%-8s %12s %12s\n", title, "op", "CPU", "GPU")
		for op := 0; op < machine.NumOps; op++ {
			fmt.Fprintf(out, "%-8s %12d %12d\n", machine.Op(op), cpu[op], gpu[op])
		}
	}
	r0 := f.Stats.PerRank[0]
	show("rank 0, as in paper Fig. 6", r0.CPU, r0.GPU)
	var cpu, gpu [machine.NumOps]int64
	for _, s := range f.Stats.PerRank {
		for op := range cpu {
			cpu[op] += s.CPU[op]
			gpu[op] += s.GPU[op]
		}
	}
	show("all ranks", cpu, gpu)
}
