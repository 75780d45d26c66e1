// Command benchfig regenerates every table and figure of the paper's
// evaluation (§5) from the reproduction's models and solvers:
//
//	table1 — characteristics of the three test matrices (Table 1)
//	5      — RMA get flood bandwidth, native vs reference memory kinds vs
//	         MPI (Fig. 5)
//	6      — CPU vs GPU BLAS/LAPACK call counts, rank 0 (Fig. 6)
//	7/8    — factorization / solve strong scaling, Flan analogue (Figs. 7–8)
//	9/10   — factorization / solve strong scaling, bone analogue (Figs. 9–10)
//	11/12  — factorization / solve strong scaling, thermal analogue
//	         (Figs. 11–12)
//	variants — factorization strong scaling of the three task formulations
//	         (fan-out / fan-in / fan-both) on the Flan analogue at scales
//	         1–2 (DESIGN.md §13)
//	iter   — iterative vs direct time-to-solution and CG/PCG iteration
//	         counts on the thermal analogue at scales 1–2 (DESIGN.md §14)
//
// Usage:
//
//	benchfig -fig all -scale 2
//	benchfig -fig 7 -scale 3
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"sympack"
	"sympack/internal/des"
	"sympack/internal/gen"
	"sympack/internal/machine"
	"sympack/internal/matrix"
	"sympack/internal/metrics"
	"sympack/internal/ordering"
	"sympack/internal/simnet"
	"sympack/internal/symbolic"
)

func main() {
	var (
		fig   = flag.String("fig", "all", "figure to regenerate: table1|5|6|7|8|9|10|11|12|variants|iter|all")
		scale = flag.Int("scale", 2, "problem scale for the matrix generators")
	)
	flag.StringVar(&csvDir, "csv", "", "also write each figure's series as CSV files into this directory")
	flag.Parse()
	if csvDir != "" {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "benchfig:", err)
			os.Exit(1)
		}
	}

	run := func(name string, f func(int) error) {
		if *fig != "all" && *fig != name {
			return
		}
		fmt.Printf("==================== %s ====================\n", header(name))
		if err := f(*scale); err != nil {
			fmt.Fprintf(os.Stderr, "benchfig %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
	run("table1", table1)
	run("5", fig5)
	run("6", fig6)
	run("7", scaling("Flan_1565 analogue", flan.Build, false))
	run("8", scaling("Flan_1565 analogue", flan.Build, true))
	run("9", scaling("boneS10 analogue", bone.Build, false))
	run("10", scaling("boneS10 analogue", bone.Build, true))
	run("11", scaling("thermal2 analogue", thermal.Build, false))
	run("12", scaling("thermal2 analogue", thermal.Build, true))
	run("variants", variantsFig)
	run("iter", iterFig)

	if len(figures) > 0 {
		path := filepath.Join(csvDir, "BENCH_scaling.json")
		if err := writeScalingReport(path, *scale, figures); err != nil {
			fmt.Fprintln(os.Stderr, "benchfig:", err)
			os.Exit(1)
		}
		fmt.Printf("scaling report written to %s\n", path)
	}
}

// The figures factor the matrices Table 1 describes.
var (
	problems            = gen.Table1Problems()
	flan, bone, thermal = problems[0], problems[1], problems[2]
)

// figures accumulates one entry per strong-scaling run for the
// BENCH_scaling.json run report (Figs. 7–12).
var figures []sympack.MetricsFigure

// writeScalingReport dumps the collected strong-scaling curves in the
// shared run-report schema so benchmark trajectories stay greppable
// across revisions.
func writeScalingReport(path string, scale int, figs []sympack.MetricsFigure) error {
	rep := &sympack.RunReport{
		Command: "benchfig",
		Matrix:  fmt.Sprintf("generated analogues, scale %d", scale),
		Figures: figs,
	}
	_, err := metrics.WriteReportFile(path, rep, machine.WallNow())
	return err
}

func header(name string) string {
	switch name {
	case "table1":
		return "Table 1: test matrices"
	case "5":
		return "Figure 5: RMA get flood bandwidth (memory kinds)"
	case "6":
		return "Figure 6: BLAS/LAPACK calls on CPU vs GPU"
	case "7":
		return "Figure 7: factorization strong scaling, Flan analogue"
	case "8":
		return "Figure 8: solve strong scaling, Flan analogue"
	case "9":
		return "Figure 9: factorization strong scaling, bone analogue"
	case "10":
		return "Figure 10: solve strong scaling, bone analogue"
	case "11":
		return "Figure 11: factorization strong scaling, thermal analogue"
	case "12":
		return "Figure 12: solve strong scaling, thermal analogue"
	case "variants":
		return "Scheduling variants: formulation strong scaling, Flan analogue"
	case "iter":
		return "Iterative solves: CG/PCG vs direct, thermal analogue"
	}
	return name
}

// csvDir, when set, receives one CSV per figure for plotting.
var csvDir string

// writeCSV writes rows (first row = header) to <csvDir>/<name>.csv.
func writeCSV(name string, rows [][]string) error {
	if csvDir == "" {
		return nil
	}
	fh, err := os.Create(filepath.Join(csvDir, name+".csv"))
	if err != nil {
		return err
	}
	defer fh.Close()
	w := csv.NewWriter(fh)
	defer w.Flush()
	return w.WriteAll(rows)
}

func table1(scale int) error {
	fmt.Printf("%-12s %-45s %10s %14s\n", "Name", "Description", "n", "nnz")
	for _, p := range problems {
		m := p.Build(scale)
		st := gen.StatsOf(p.Name, p.Description, m)
		fmt.Printf("%-12s %-45s %10d %14d\n", st.Name, st.Description, st.N, st.Nnz)
	}
	return nil
}

// fig5 evaluates the flood-bandwidth of the three transfer paths at the
// paper's payload sizes (window of 64 in-flight gets, as in the AD/AE).
func fig5(int) error {
	native := simnet.New(machine.Perlmutter())
	const window = 64
	fmt.Printf("%-10s %16s %16s %16s %10s %10s\n",
		"size", "native (MiB/s)", "reference", "MPI", "nat/ref", "nat/MPI")
	for _, bytes := range []int64{16, 64, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20} {
		nat := native.Bandwidth(simnet.PathGDR, bytes, window)
		ref := native.Bandwidth(simnet.PathStaged, bytes, window)
		mpi := native.Bandwidth(simnet.PathMPIGet, bytes, window)
		fmt.Printf("%-10s %16.1f %16.1f %16.1f %10.2f %10.2f\n",
			sizeName(bytes), nat/(1<<20), ref/(1<<20), mpi/(1<<20), nat/ref, nat/mpi)
	}
	fmt.Println("(limiting wire speed: 23 GB/s ≈ 21934 MiB/s)")
	rows := [][]string{{"bytes", "native_mibs", "reference_mibs", "mpi_mibs"}}
	for _, bytes := range []int64{16, 64, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20} {
		rows = append(rows, []string{
			fmt.Sprint(bytes),
			fmt.Sprintf("%.1f", native.Bandwidth(simnet.PathGDR, bytes, window)/(1<<20)),
			fmt.Sprintf("%.1f", native.Bandwidth(simnet.PathStaged, bytes, window)/(1<<20)),
			fmt.Sprintf("%.1f", native.Bandwidth(simnet.PathMPIGet, bytes, window)/(1<<20)),
		})
	}
	return writeCSV("fig5", rows)
}

func sizeName(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%dMiB", b>>20)
	case b >= 1<<10:
		return fmt.Sprintf("%dkiB", b>>10)
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// fig6 runs a real factorization + solve of the Flan analogue with 4 ranks
// and 4 GPUs and prints rank 0's per-operation CPU/GPU call counts.
func fig6(scale int) error {
	a := flan.Build(scale)
	f, err := sympack.Factorize(a, sympack.Options{
		Ranks: 4, RanksPerNode: 4, GPUsPerNode: 4, Mapping: sympack.Map2DCyclic,
	})
	if err != nil {
		return err
	}
	b := make([]float64, a.N)
	for i := range b {
		b[i] = 1
	}
	if _, err := f.SolveDistributed(b); err != nil {
		return err
	}
	fmt.Printf("matrix: Flan analogue n=%d, 4 UPC++ processes, 4 GPUs; rank 0 shown\n", a.N)
	fmt.Printf("%-8s %12s %12s\n", "op", "CPU", "GPU")
	r0 := f.Stats.PerRank[0]
	for op := 0; op < machine.NumOps; op++ {
		fmt.Printf("%-8s %12d %12d\n", machine.Op(op), r0.CPU[op], r0.GPU[op])
	}
	return nil
}

// scaling returns a figure runner for one matrix: strong scaling of
// factorization or solve for both solvers over 1–64 nodes, best
// ranks-per-node per point (the paper's methodology).
func scaling(name string, build func(int) *matrix.SparseSym, solve bool) func(int) error {
	return func(scale int) error {
		a := build(scale)
		st, _, err := symbolic.Analyze(a, ordering.NestedDissection, symbolic.DefaultOptions())
		if err != nil {
			return err
		}
		tg := symbolic.BuildTaskGraph(st)
		fmt.Printf("matrix: %s  n=%d nnz=%d  supernodes=%d  factor flops=%.3g\n",
			name, a.N, a.NnzFull(), st.NumSupernodes(), float64(st.FactorFlop))
		phase := "factorization"
		if solve {
			phase = "solve"
		}
		fmt.Printf("%-6s %18s %18s %9s\n", "nodes", "symPACK "+phase, "PaStiX-like", "speedup")
		spPts, err := des.StrongScaling(st, tg, des.DefaultSweep(des.SymPACK))
		if err != nil {
			return err
		}
		blPts, err := des.StrongScaling(st, tg, des.DefaultSweep(des.Baseline))
		if err != nil {
			return err
		}
		tag := "factor"
		if solve {
			tag = "solve"
		}
		fig := sympack.MetricsFigure{
			Name:   strings.ReplaceAll(name, " ", "_") + "_" + tag,
			Matrix: name,
			Phase:  tag,
		}
		rows := [][]string{{"nodes", "sympack_seconds", "pastix_seconds"}}
		for i := range spPts {
			spT, blT := spPts[i].FactorSeconds, blPts[i].FactorSeconds
			if solve {
				spT, blT = spPts[i].SolveSeconds, blPts[i].SolveSeconds
			}
			fmt.Printf("%-6d %15.4gs %15.4gs %8.1fx\n", spPts[i].Nodes, spT, blT, blT/spT)
			rows = append(rows, []string{
				fmt.Sprint(spPts[i].Nodes),
				fmt.Sprintf("%.6g", spT),
				fmt.Sprintf("%.6g", blT),
			})
			fig.Points = append(fig.Points, sympack.MetricsPoint{
				Nodes: spPts[i].Nodes, Seconds: spT, Baseline: blT,
			})
		}
		figures = append(figures, fig)
		return writeCSV(fig.Name, rows)
	}
}

// iterFig compares the iterative-solve subsystem against the direct solver
// on the thermal analogue — the very-sparse regime where incomplete
// factorization pays — at scales 1 and 2 (the -scale flag is ignored so the
// figure stays comparable across revisions). For each scale it times direct
// factor+solve and then CG, PCG+IC(0) and PCG+IC(1) to rtol 1e-8, printing
// iteration counts, matvecs and wall time-to-solution; one curve per solver
// (Nodes = scale, Baseline = direct wall at that scale) lands in
// BENCH_scaling.json. Wall times vary run to run; iteration counts are
// bit-deterministic.
func iterFig(int) error {
	type curve struct {
		name string
		cg   sympack.CGOptions
	}
	solvers := []curve{
		{name: "cg", cg: sympack.CGOptions{Rtol: 1e-8}},
		{name: "pcg-ic0", cg: sympack.CGOptions{Rtol: 1e-8, Precond: sympack.PrecondIC, ICLevel: 0}},
		{name: "pcg-ic1", cg: sympack.CGOptions{Rtol: 1e-8, Precond: sympack.PrecondIC, ICLevel: 1}},
	}
	figs := make([]sympack.MetricsFigure, len(solvers))
	for i, s := range solvers {
		figs[i] = sympack.MetricsFigure{
			Name:   "iter_thermal_" + s.name,
			Matrix: "thermal2 analogue",
			Phase:  "solve",
		}
	}
	directFig := sympack.MetricsFigure{
		Name: "iter_thermal_direct", Matrix: "thermal2 analogue", Phase: "solve",
	}
	rows := [][]string{{"scale", "solver", "iterations", "matvecs", "wall_seconds", "residual"}}
	for _, scale := range []int{1, 2} {
		a := thermal.Build(scale)
		// A seeded random RHS: the all-ones vector is nearly an eigenvector
		// of the thermal problem and converges in one CG step, which says
		// nothing about the solvers.
		rng := rand.New(rand.NewSource(int64(scale)))
		b := make([]float64, a.N)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		fmt.Printf("matrix: thermal analogue scale %d  n=%d nnz=%d\n", scale, a.N, a.NnzFull())
		fmt.Printf("%-10s %12s %10s %14s %12s\n", "solver", "iterations", "matvecs", "wall", "residual")

		t0 := machine.WallNow()
		f, err := sympack.Factorize(a, sympack.Options{})
		if err != nil {
			return err
		}
		x, err := f.Solve(b)
		if err != nil {
			return err
		}
		directWall := machine.WallSince(t0).Seconds()
		directRes := sympack.ResidualNorm(a, x, b)
		fmt.Printf("%-10s %12s %10s %13.4gs %12.3g\n", "direct", "-", "-", directWall, directRes)
		rows = append(rows, []string{fmt.Sprint(scale), "direct", "0", "0",
			fmt.Sprintf("%.6g", directWall), fmt.Sprintf("%.3g", directRes)})
		directFig.Points = append(directFig.Points, sympack.MetricsPoint{
			Nodes: scale, Seconds: directWall, Baseline: directWall,
		})

		for i, s := range solvers {
			t0 := machine.WallNow()
			res, err := sympack.SolveCG(a, b, sympack.Options{}, s.cg)
			if err != nil {
				return err
			}
			wall := machine.WallSince(t0).Seconds()
			rel := sympack.ResidualNorm(a, res.X, b)
			fmt.Printf("%-10s %12d %10d %13.4gs %12.3g\n", s.name, res.Iterations, res.MatVecs, wall, rel)
			rows = append(rows, []string{fmt.Sprint(scale), s.name,
				fmt.Sprint(res.Iterations), fmt.Sprint(res.MatVecs),
				fmt.Sprintf("%.6g", wall), fmt.Sprintf("%.3g", rel)})
			figs[i].Points = append(figs[i].Points, sympack.MetricsPoint{
				Nodes: scale, Seconds: wall, Baseline: directWall, Iterations: res.Iterations,
			})
		}
		fmt.Println()
	}
	figures = append(figures, directFig)
	figures = append(figures, figs...)
	return writeCSV("iter", rows)
}

// variantsFig races the three task formulations through the performance
// model on the Flan analogue: one factorization strong-scaling curve per
// formulation at scales 1 and 2 (the -scale flag is ignored so the figure
// stays comparable across revisions), appended to BENCH_scaling.json. The
// conformance battery (internal/core/conformance_test.go) pins all three
// to identical factor bits, so these curves differ in schedule and traffic
// only; fan-out is the baseline column of each curve.
func variantsFig(int) error {
	forms := symbolic.Formulations()
	for _, scale := range []int{1, 2} {
		a := flan.Build(scale)
		st, _, err := symbolic.Analyze(a, ordering.NestedDissection, symbolic.DefaultOptions())
		if err != nil {
			return err
		}
		tg := symbolic.BuildTaskGraph(st)
		fmt.Printf("matrix: Flan analogue scale %d  n=%d nnz=%d  supernodes=%d\n",
			scale, a.N, a.NnzFull(), st.NumSupernodes())
		curves := make([][]des.ScalingPoint, len(forms))
		for fi, form := range forms {
			sw := des.DefaultSweep(des.SymPACK)
			sw.Formulation = form
			if curves[fi], err = des.StrongScaling(st, tg, sw); err != nil {
				return err
			}
		}
		ref := curves[0] // fan-out
		fmt.Printf("%-6s %14s %14s %14s\n", "nodes", "fan-out", "fan-in", "fan-both")
		rows := [][]string{{"nodes", "fanout_seconds", "fanin_seconds", "fanboth_seconds"}}
		for i := range ref {
			fmt.Printf("%-6d %13.4gs %13.4gs %13.4gs\n", ref[i].Nodes,
				curves[0][i].FactorSeconds, curves[1][i].FactorSeconds, curves[2][i].FactorSeconds)
			rows = append(rows, []string{
				fmt.Sprint(ref[i].Nodes),
				fmt.Sprintf("%.6g", curves[0][i].FactorSeconds),
				fmt.Sprintf("%.6g", curves[1][i].FactorSeconds),
				fmt.Sprintf("%.6g", curves[2][i].FactorSeconds),
			})
		}
		for fi, form := range forms {
			fig := sympack.MetricsFigure{
				Name:   fmt.Sprintf("formulation_%s_scale%d_factor", form, scale),
				Matrix: fmt.Sprintf("Flan_1565 analogue (scale %d)", scale),
				Phase:  "factor",
			}
			for i := range curves[fi] {
				fig.Points = append(fig.Points, sympack.MetricsPoint{
					Nodes:    curves[fi][i].Nodes,
					Seconds:  curves[fi][i].FactorSeconds,
					Baseline: ref[i].FactorSeconds,
				})
			}
			figures = append(figures, fig)
		}
		if err := writeCSV(fmt.Sprintf("variants_scale%d", scale), rows); err != nil {
			return err
		}
	}
	return nil
}
