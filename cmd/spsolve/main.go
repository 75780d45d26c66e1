// Command spsolve is the downstream-user tool: it solves A·x = b for a
// sparse SPD matrix from disk, with optional iterative refinement, factor
// caching (save/load), and selected inversion.
//
// Usage:
//
//	spsolve -A system.mtx -b rhs.txt -o x.txt -ranks 8 -refine
//	spsolve -A system.rb -save-factor system.spkf        # factor once
//	spsolve -load-factor system.spkf -b rhs.txt -o x.txt # reuse it
//	spsolve -A system.mtx -selinv-diag diag.txt          # diag(A⁻¹)
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"sympack"
	"sympack/internal/faults"
	"sympack/internal/matrix"
	"sympack/internal/metrics"
	"sympack/internal/ordering"
)

func main() {
	var (
		matPath  = flag.String("A", "", "matrix file (.mtx or .rb)")
		rhsPath  = flag.String("b", "", "right-hand side file (one value per line; default: all ones)")
		outPath  = flag.String("o", "", "solution output file (default stdout)")
		ranks    = flag.Int("ranks", 4, "simulated UPC++ processes")
		workers  = flag.Int("workers", 0, "goroutines per rank running tasks, the rank's own included (0 = SYMPACK_WORKERS env, else GOMAXPROCS/ranks)")
		gpus     = flag.Int("gpus", 0, "GPUs per node (0 = CPU only)")
		ordName  = flag.String("ordering", "SCOTCH", "fill-reducing ordering")
		formNm   = flag.String("formulation", "fan-out", "task formulation: fan-out|fan-in|fan-both")
		mapNm    = flag.String("mapping", "2d-cyclic", "block→process mapping: 2d-cyclic|1d-cols|subtree")
		solverNm = flag.String("solver", "direct", "solve strategy: direct|cg|pcg")
		precNm   = flag.String("precision", "fp64", "factor storage: fp64|fp32 (fp32 = float32 storage and wire, fp64 arithmetic, rounded once per finalised block; pairs with refinement)")
		icLevel  = flag.Int("ic-level", 1, "IC(k) fill level for -solver=pcg")
		rtol     = flag.Float64("rtol", 1e-8, "relative tolerance for -solver=cg|pcg")
		refine   = flag.Bool("refine", false, "apply iterative refinement")
		saveFac  = flag.String("save-factor", "", "write the factor to this file and exit if no rhs given")
		loadFac  = flag.String("load-factor", "", "load a factor instead of factoring")
		selDiag  = flag.String("selinv-diag", "", "write diag(A⁻¹) to this file (selected inversion)")
		chaos    = flag.Int64("chaos", 0, "run under the default chaos fault plan with this seed (0 = off)")
		faultsF  = flag.String("faults", "", "explicit fault plan, e.g. drop=0.05,delay=0.1 (seeded by -chaos, default 1)")
		metAddr  = flag.String("metrics-addr", "", "serve /metrics and /healthz on this host:port while factoring (use :0 for an ephemeral port)")
		report   = flag.String("report", "", "write a machine-readable run report to this JSON file ('auto' = BENCH_spsolve_<timestamp>.json)")
	)
	flag.Parse()
	plan, err := faults.Resolve(*faultsF, *chaos, 1, faults.DefaultChaos)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spsolve:", err)
		os.Exit(1)
	}
	form, err := sympack.ParseFormulation(*formNm)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spsolve:", err)
		os.Exit(1)
	}
	bmap, err := sympack.ParseMapping(*mapNm)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spsolve:", err)
		os.Exit(1)
	}
	prec, err := sympack.ParsePrecision(*precNm)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spsolve:", err)
		os.Exit(1)
	}
	switch *solverNm {
	case "direct", "cg", "pcg":
	default:
		fmt.Fprintf(os.Stderr, "spsolve: unknown solver %q (want direct, cg or pcg)\n", *solverNm)
		os.Exit(1)
	}
	iter := iterConfig{solver: *solverNm, precision: prec, icLevel: *icLevel, rtol: *rtol}
	if err := run(*matPath, *rhsPath, *outPath, *ranks, *workers, *gpus, *ordName, form, bmap, iter, *refine, *saveFac, *loadFac, *selDiag, plan, *metAddr, *report); err != nil {
		fmt.Fprintln(os.Stderr, "spsolve:", err)
		os.Exit(1)
	}
}

// iterConfig bundles the iterative-solve flags (-solver, -precision,
// -ic-level, -rtol).
type iterConfig struct {
	solver    string
	precision sympack.Precision
	icLevel   int
	rtol      float64
}

func run(matPath, rhsPath, outPath string, ranks, workers, gpus int, ordName string, form sympack.Formulation, bmap sympack.MappingKind, iter iterConfig, refine bool, saveFac, loadFac, selDiag string, plan *sympack.FaultPlan, metAddr, report string) error {
	var (
		a   *sympack.Matrix
		f   *sympack.Factor
		err error
	)
	if iter.solver != "direct" {
		// Iterative path: no complete factorization at all — CG (optionally
		// through the engine-built IC(k) preconditioner) solves directly.
		if matPath == "" {
			return fmt.Errorf("-solver=%s needs the matrix (-A)", iter.solver)
		}
		if a, err = matrix.ReadFile(matPath); err != nil {
			return err
		}
		ord, err := ordering.ParseKind(ordName)
		if err != nil {
			return err
		}
		b := make([]float64, a.N)
		if rhsPath != "" {
			if err := readVector(rhsPath, b); err != nil {
				return err
			}
		} else {
			for i := range b {
				b[i] = 1
			}
		}
		cg := sympack.CGOptions{Rtol: iter.rtol}
		if iter.solver == "pcg" {
			cg.Precond = sympack.PrecondIC
			cg.ICLevel = iter.icLevel
		}
		res, err := sympack.SolveCG(a, b, sympack.Options{
			Ranks: ranks, Workers: workers, GPUsPerNode: gpus, Ordering: ord,
			Formulation: form, Mapping: bmap, Precision: iter.precision, Faults: plan,
		}, cg)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "spsolve: %s converged in %d iterations (%d matvecs), residual %.3g\n",
			iter.solver, res.Iterations, res.MatVecs, res.Residual)
		return writeVector(outPath, res.X)
	}
	switch {
	case loadFac != "":
		fh, err := os.Open(loadFac)
		if err != nil {
			return err
		}
		f, err = sympack.LoadFactor(fh)
		fh.Close()
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "spsolve: loaded factor: n=%d, %d supernodes\n",
			f.St.N, f.St.NumSupernodes())
		if matPath != "" {
			if a, err = matrix.ReadFile(matPath); err != nil {
				return err
			}
		}
	case matPath != "":
		if a, err = matrix.ReadFile(matPath); err != nil {
			return err
		}
		ord, err := ordering.ParseKind(ordName)
		if err != nil {
			return err
		}
		f, err = sympack.Factorize(a, sympack.Options{
			Ranks: ranks, Workers: workers, GPUsPerNode: gpus, Ordering: ord, Faults: plan,
			Formulation: form, Mapping: bmap, Precision: iter.precision,
			MetricsAddr: metAddr,
		})
		if err != nil {
			return err
		}
		defer f.CloseMetrics()
		if addr := f.MetricsAddr(); addr != "" {
			fmt.Fprintf(os.Stderr, "spsolve: metrics at http://%s/metrics\n", addr)
		}
		fmt.Fprintf(os.Stderr, "spsolve: factored n=%d nnz=%d in %v (nnz(L)=%d)\n",
			a.N, a.NnzFull(), f.Stats.Wall, f.Stats.NnzL)
		if line := sympack.FaultSummary(f.Metrics.Snapshot()); line != "" {
			fmt.Fprintf(os.Stderr, "spsolve: faults injected/recovered: %s\n", line)
		}
		if report != "" {
			path, err := metrics.WriteReportFile(report, f.RunReport("spsolve", matPath, a), time.Now())
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "spsolve: report written to %s\n", path)
		}
	default:
		return fmt.Errorf("one of -A or -load-factor is required")
	}

	if saveFac != "" {
		fh, err := os.Create(saveFac)
		if err != nil {
			return err
		}
		if err := f.Save(fh); err != nil {
			fh.Close()
			return err
		}
		if err := fh.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "spsolve: factor saved to %s\n", saveFac)
	}

	if selDiag != "" {
		si, err := f.SelectedInverse()
		if err != nil {
			return err
		}
		if err := writeVector(selDiag, si.Diag()); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "spsolve: diag(A⁻¹) written to %s (%d selected entries)\n",
			selDiag, si.Nnz())
	}

	if rhsPath == "" && outPath == "" && (saveFac != "" || selDiag != "") {
		return nil // factor-only or selinv-only invocation
	}

	n := f.St.N
	b := make([]float64, n)
	if rhsPath != "" {
		if err := readVector(rhsPath, b); err != nil {
			return err
		}
	} else {
		for i := range b {
			b[i] = 1
		}
	}
	if iter.precision == sympack.PrecFP32 && !refine {
		// An fp32 factor alone gives single-precision accuracy; refinement
		// against the fp64 matrix recovers the rest.
		if a == nil {
			return fmt.Errorf("-precision=fp32 needs the matrix (-A) for refinement residuals")
		}
		refine = true
	}
	var x []float64
	if refine {
		if a == nil {
			return fmt.Errorf("-refine needs the matrix (-A) for residuals")
		}
		var rel float64
		var iters int
		x, rel, iters, err = f.SolveRefined(a, b, 1e-14, 5)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "spsolve: solved with %d refinement steps, residual %.3g\n", iters, rel)
	} else {
		x, err = f.SolveDistributed(b)
		if err != nil {
			return err
		}
		if a != nil {
			fmt.Fprintf(os.Stderr, "spsolve: solved, residual %.3g\n", sympack.ResidualNorm(a, x, b))
		}
	}
	return writeVector(outPath, x)
}

// readVector loads one float per line.
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

// writeVector stores one float per line; empty path writes to stdout.
func writeVector(path string, v []float64) error {
	w := os.Stdout
	if path != "" {
		fh, err := os.Create(path)
		if err != nil {
			return err
		}
		defer fh.Close()
		w = fh
	}
	bw := bufio.NewWriter(w)
	for _, x := range v {
		fmt.Fprintf(bw, "%.17g\n", x)
	}
	return bw.Flush()
}
