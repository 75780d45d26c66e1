package sympack

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (§5). Each Benchmark function corresponds to one exhibit (see
// DESIGN.md's experiment index); run them all with
//
//	go test -bench=. -benchmem
//
// Figure-series rows are emitted through b.Log (visible with -v) and the
// headline numbers are attached as custom benchmark metrics, so the shapes
// the paper reports — who wins, by what factor, where curves bend — are
// visible straight from the bench output. cmd/benchfig prints the same
// series standalone.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"sympack/internal/blas"
	"sympack/internal/des"
	"sympack/internal/faults"
	"sympack/internal/gen"
	"sympack/internal/gpu"
	"sympack/internal/machine"
	"sympack/internal/matrix"
	"sympack/internal/ordering"
	"sympack/internal/simnet"
	"sympack/internal/symbolic"
)

// ------------------------------------------------------ shared problems ----

type analyzedProblem struct {
	name string
	a    *matrix.SparseSym
	st   *symbolic.Structure
	tg   *symbolic.TaskGraph
}

var (
	problemOnce  sync.Once
	benchProblem map[string]*analyzedProblem
)

// problems returns the three evaluation matrices at bench scale, analyzed
// once and shared by all figure benchmarks.
func problems(b *testing.B) map[string]*analyzedProblem {
	b.Helper()
	problemOnce.Do(func() {
		build := map[string]*matrix.SparseSym{
			// Structural regimes of Table 1, sized so a full sweep stays
			// tractable in a test harness.
			"flan":    gen.Flan3D(10, 10, 10, 1565),
			"bone":    gen.Bone3D(22, 22, 22, 0.35, 10),
			"thermal": gen.Thermal2D(256, 256, 12, 2),
		}
		benchProblem = map[string]*analyzedProblem{}
		for name, a := range build {
			st, _, err := symbolic.Analyze(a, ordering.NestedDissection, symbolic.DefaultOptions())
			if err != nil {
				panic(err)
			}
			benchProblem[name] = &analyzedProblem{
				name: name, a: a, st: st, tg: symbolic.BuildTaskGraph(st),
			}
		}
	})
	return benchProblem
}

// ----------------------------------------------------------- Table 1 ----

// BenchmarkTable1MatrixStats regenerates Table 1: the characteristics of
// the three evaluation matrices (synthetic analogues at bench scale).
func BenchmarkTable1MatrixStats(b *testing.B) {
	var rows []gen.Stats
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, p := range gen.Table1Problems() {
			m := p.Build(2)
			rows = append(rows, gen.StatsOf(p.Name, p.Description, m))
		}
	}
	b.Log("Table 1: Name | n | nnz")
	for _, r := range rows {
		b.Logf("  %-12s %8d %12d", r.Name, r.N, r.Nnz)
	}
}

// ------------------------------------------------------------ Figure 5 ----

// BenchmarkFig5MemoryKinds regenerates Figure 5: RMA get flood bandwidth
// into GPU memory for native memory kinds, the reference (host-staged)
// implementation, and CUDA-aware MPI_Get, across payload sizes.
func BenchmarkFig5MemoryKinds(b *testing.B) {
	net := simnet.New(machine.Perlmutter())
	sizes := []int64{16, 64, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20}
	const window = 64
	var nat, ref, mpi float64
	for i := 0; i < b.N; i++ {
		for _, sz := range sizes {
			nat = net.Bandwidth(simnet.PathGDR, sz, window)
			ref = net.Bandwidth(simnet.PathStaged, sz, window)
			mpi = net.Bandwidth(simnet.PathMPIGet, sz, window)
		}
	}
	b.Log("Figure 5: size | native MiB/s | reference | MPI | nat/ref | nat/MPI")
	for _, sz := range sizes {
		n := net.Bandwidth(simnet.PathGDR, sz, window)
		r := net.Bandwidth(simnet.PathStaged, sz, window)
		m := net.Bandwidth(simnet.PathMPIGet, sz, window)
		b.Logf("  %8d %12.1f %12.1f %12.1f %8.2f %8.2f",
			sz, n/(1<<20), r/(1<<20), m/(1<<20), n/r, n/m)
	}
	b.ReportMetric(nat/ref, "native/ref@4MiB")
	b.ReportMetric(nat/mpi, "native/mpi@4MiB")
}

// ------------------------------------------------------------ Figure 6 ----

// BenchmarkFig6WorkloadSplit regenerates Figure 6: the number of
// BLAS/LAPACK calls executed on the CPU versus the GPU for a factorization
// and solve of the Flan analogue with 4 UPC++ processes and 4 GPUs (rank 0
// reported, as in the paper).
func BenchmarkFig6WorkloadSplit(b *testing.B) {
	a := gen.Flan3D(7, 7, 7, 1565)
	var f *Factor
	for i := 0; i < b.N; i++ {
		var err error
		f, err = Factorize(a, Options{Ranks: 4, RanksPerNode: 4, GPUsPerNode: 4})
		if err != nil {
			b.Fatal(err)
		}
		rhs := make([]float64, a.N)
		for j := range rhs {
			rhs[j] = 1
		}
		if _, err := f.SolveDistributed(rhs); err != nil {
			b.Fatal(err)
		}
	}
	r0 := f.Stats.PerRank[0]
	b.Log("Figure 6: op | CPU calls | GPU calls (rank 0)")
	var cpuTot, gpuTot int64
	for op := 0; op < machine.NumOps; op++ {
		b.Logf("  %-6s %8d %8d", machine.Op(op), r0.CPU[op], r0.GPU[op])
		cpuTot += r0.CPU[op]
		gpuTot += r0.GPU[op]
	}
	b.ReportMetric(float64(cpuTot), "cpu-calls")
	b.ReportMetric(float64(gpuTot), "gpu-calls")
}

// ------------------------------------------------- Figures 7–12 (sweeps) ----

// runScalingFigure executes a full strong-scaling sweep for one matrix and
// one phase and reports the paper's series.
func runScalingFigure(b *testing.B, prob string, solve bool) {
	p := problems(b)[prob]
	var sp, bl []des.ScalingPoint
	for i := 0; i < b.N; i++ {
		var err error
		sp, err = des.StrongScaling(p.st, p.tg, des.DefaultSweep(des.SymPACK))
		if err != nil {
			b.Fatal(err)
		}
		bl, err = des.StrongScaling(p.st, p.tg, des.DefaultSweep(des.Baseline))
		if err != nil {
			b.Fatal(err)
		}
	}
	phase := "factorization"
	if solve {
		phase = "solve"
	}
	b.Logf("%s %s strong scaling (n=%d): nodes | symPACK | PaStiX-like | speedup", prob, phase, p.a.N)
	var worst, best = 1e9, 0.0
	for i := range sp {
		spT, blT := sp[i].FactorSeconds, bl[i].FactorSeconds
		if solve {
			spT, blT = sp[i].SolveSeconds, bl[i].SolveSeconds
		}
		ratio := blT / spT
		if ratio < worst {
			worst = ratio
		}
		if ratio > best {
			best = ratio
		}
		b.Logf("  %2d %12.5gs %12.5gs %8.2fx", sp[i].Nodes, spT, blT, ratio)
		if ratio <= 1 {
			b.Errorf("nodes=%d: symPACK (%.4gs) did not beat the baseline (%.4gs)", sp[i].Nodes, spT, blT)
		}
	}
	b.ReportMetric(worst, "min-speedup")
	b.ReportMetric(best, "max-speedup")
}

// BenchmarkFig7FactorFlan regenerates Figure 7 (factorization, Flan).
func BenchmarkFig7FactorFlan(b *testing.B) { runScalingFigure(b, "flan", false) }

// BenchmarkFig8SolveFlan regenerates Figure 8 (solve, Flan).
func BenchmarkFig8SolveFlan(b *testing.B) { runScalingFigure(b, "flan", true) }

// BenchmarkFig9FactorBone regenerates Figure 9 (factorization, boneS10).
func BenchmarkFig9FactorBone(b *testing.B) { runScalingFigure(b, "bone", false) }

// BenchmarkFig10SolveBone regenerates Figure 10 (solve, boneS10).
func BenchmarkFig10SolveBone(b *testing.B) { runScalingFigure(b, "bone", true) }

// BenchmarkFig11FactorThermal regenerates Figure 11 (factorization,
// thermal2).
func BenchmarkFig11FactorThermal(b *testing.B) { runScalingFigure(b, "thermal", false) }

// BenchmarkFig12SolveThermal regenerates Figure 12 (solve, thermal2).
func BenchmarkFig12SolveThermal(b *testing.B) { runScalingFigure(b, "thermal", true) }

// ------------------------------------------------------------ ablations ----

// BenchmarkAblationMemoryKinds measures what native memory kinds buy the
// factorization: the same symPACK sweep with GDR disabled (reference
// implementation), the in-system counterpart of Fig. 5.
func BenchmarkAblationMemoryKinds(b *testing.B) {
	p := problems(b)["flan"]
	var with, without float64
	for i := 0; i < b.N; i++ {
		cfgOn := des.Config{
			Solver: des.SymPACK, Nodes: 16, RanksPerNode: 4, GPUsPerNode: 4,
			Machine: machine.Perlmutter(), Thresholds: gpu.DefaultThresholds(),
		}
		cfgOff := cfgOn
		cfgOff.Machine = machine.Perlmutter().WithoutGDR()
		on, err := des.Simulate(p.st, p.tg, cfgOn)
		if err != nil {
			b.Fatal(err)
		}
		off, err := des.Simulate(p.st, p.tg, cfgOff)
		if err != nil {
			b.Fatal(err)
		}
		with, without = on.FactorSeconds, off.FactorSeconds
	}
	b.Logf("16 nodes, Flan: native kinds %.5gs vs reference %.5gs (%.2fx)",
		with, without, without/with)
	b.ReportMetric(without/with, "gdr-speedup")
}

// BenchmarkAblationOffloadHeuristic compares the paper's hybrid per-op
// thresholds against GPU-nothing and GPU-everything policies — the
// trade-off §4.2 argues for. The dense-supernode problem (flan) shows why
// CPU-only loses; the thin-supernode problem (thermal) shows why
// GPU-everything loses (launch overhead on small buffers).
func BenchmarkAblationOffloadHeuristic(b *testing.B) {
	type row struct{ hybrid, cpuOnly, gpuAll float64 }
	results := map[string]row{}
	for i := 0; i < b.N; i++ {
		for _, name := range []string{"flan", "thermal"} {
			p := problems(b)[name]
			base := des.Config{
				Solver: des.SymPACK, Nodes: 4, RanksPerNode: 4, GPUsPerNode: 4,
				Machine: machine.Perlmutter(), Thresholds: gpu.DefaultThresholds(),
			}
			var r row
			res, err := des.Simulate(p.st, p.tg, base)
			if err != nil {
				b.Fatal(err)
			}
			r.hybrid = res.FactorSeconds

			noGPU := base
			noGPU.GPUsPerNode = 0
			res, err = des.Simulate(p.st, p.tg, noGPU)
			if err != nil {
				b.Fatal(err)
			}
			r.cpuOnly = res.FactorSeconds

			all := base
			all.Thresholds = gpu.Thresholds{Potrf: 1, Trsm: 1, Syrk: 1, Gemm: 1}
			res, err = des.Simulate(p.st, p.tg, all)
			if err != nil {
				b.Fatal(err)
			}
			r.gpuAll = res.FactorSeconds
			results[name] = r
		}
	}
	for name, r := range results {
		b.Logf("4 nodes, %s factorization: hybrid %.5gs | cpu-only %.5gs | gpu-everything %.5gs",
			name, r.hybrid, r.cpuOnly, r.gpuAll)
	}
	// Dense supernodes: offload must pay off.
	if f := results["flan"]; f.hybrid >= f.cpuOnly {
		b.Errorf("flan: hybrid (%.4gs) should beat cpu-only (%.4gs)", f.hybrid, f.cpuOnly)
	}
	// Thin supernodes: indiscriminate offload must lose to the hybrid.
	if th := results["thermal"]; th.hybrid >= th.gpuAll {
		b.Errorf("thermal: hybrid (%.4gs) should beat gpu-everything (%.4gs)", th.hybrid, th.gpuAll)
	}
	b.ReportMetric(results["flan"].cpuOnly/results["flan"].hybrid, "flan-vs-cpu-only")
	b.ReportMetric(results["thermal"].gpuAll/results["thermal"].hybrid, "thermal-vs-gpu-everything")
}

// BenchmarkAblationOrdering quantifies the fill-reducing ordering's effect
// on factor size and flops (why the paper runs Scotch).
func BenchmarkAblationOrdering(b *testing.B) {
	a := gen.Laplace3D(14, 14, 14)
	kinds := []ordering.Kind{ordering.Natural, ordering.RCM, ordering.MinDegree, ordering.NestedDissection}
	results := map[ordering.Kind]*symbolic.Structure{}
	for i := 0; i < b.N; i++ {
		for _, k := range kinds {
			st, _, err := symbolic.Analyze(a, k, symbolic.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			results[k] = st
		}
	}
	b.Log("ordering | nnz(L) | flops")
	for _, k := range kinds {
		st := results[k]
		b.Logf("  %-10v %10d %12.3g", k, st.NnzL, float64(st.FactorFlop))
	}
	nd, nat := results[ordering.NestedDissection], results[ordering.Natural]
	b.ReportMetric(float64(nat.NnzL)/float64(nd.NnzL), "nd-fill-gain")
}

// BenchmarkAblationRelaxation measures supernode amalgamation's effect on
// task-graph size and modeled time (the DESIGN.md §3 design choice).
func BenchmarkAblationRelaxation(b *testing.B) {
	a := gen.Thermal2D(128, 128, 6, 2)
	var strictT, relaxT float64
	var strictTasks, relaxTasks int
	for i := 0; i < b.N; i++ {
		for _, relax := range []bool{false, true} {
			opt := symbolic.Options{MaxSupernodeSize: 128}
			if relax {
				opt.RelaxRatio = 0.25
			}
			st, _, err := symbolic.Analyze(a, ordering.NestedDissection, opt)
			if err != nil {
				b.Fatal(err)
			}
			tg := symbolic.BuildTaskGraph(st)
			r, err := des.Simulate(st, tg, des.Config{
				Solver: des.SymPACK, Nodes: 4, RanksPerNode: 4, GPUsPerNode: 4,
				Machine: machine.Perlmutter(), Thresholds: gpu.DefaultThresholds(),
			})
			if err != nil {
				b.Fatal(err)
			}
			if relax {
				relaxT, relaxTasks = r.FactorSeconds, r.Tasks
			} else {
				strictT, strictTasks = r.FactorSeconds, r.Tasks
			}
		}
	}
	b.Logf("thermal, 4 nodes: strict %.5gs (%d tasks) vs relaxed %.5gs (%d tasks)",
		strictT, strictTasks, relaxT, relaxTasks)
	b.ReportMetric(strictT/relaxT, "relaxation-speedup")
}

// --------------------------------------------------------- microbenches ----

// kernelData returns n kernel operands: normally distributed, or with
// zeros planted, v[i] = i%p − p/2 (one element in p is zero, and the
// tile's per-column skip path runs whenever a multiplier is one of them).
func kernelData(rng *rand.Rand, n, p int, zeros bool) []float64 {
	v := make([]float64, n)
	for i := range v {
		if zeros {
			v[i] = float64(i%p - p/2)
		} else {
			v[i] = rng.NormFloat64()
		}
	}
	return v
}

func reportGflops(b *testing.B, flop int) {
	b.ReportMetric(float64(flop)*float64(b.N)/b.Elapsed().Seconds()/1e9, "gflops")
}

// BenchmarkKernelGemm measures the host GEMM kernel (NoTrans × Transpose,
// the engine's update) at block sizes of the solver's update tasks:
// 96×64×64 (typical), the cubes 64³ and 128³ (the 128-column cap of
// Flan3D's supernodes), 40×24×32 and 16×8×8 (small supernodes; 8 columns
// is one register tile). Each shape runs on dense random data and with
// zeros planted in A (every seventh element) and B (every fifth), so the
// cost of the zero-skip path shows. It runs whichever path the package
// selected — the AVX-512 tile, the AVX2 axpy or the Go loops; go test -v
// -run TestKernelPath ./internal/blas names it.
func BenchmarkKernelGemm(b *testing.B) {
	for _, s := range []struct{ m, n, k int }{{96, 64, 64}, {64, 64, 64}, {128, 128, 128}, {40, 24, 32}, {16, 8, 8}} {
		for _, zeros := range []bool{false, true} {
			data := "dense"
			if zeros {
				data = "zeros"
			}
			b.Run(fmt.Sprintf("%dx%dx%d/%s", s.m, s.n, s.k, data), func(b *testing.B) {
				m, n, k := s.m, s.n, s.k
				rng := rand.New(rand.NewSource(1))
				a, bb := kernelData(rng, m*k, 7, zeros), kernelData(rng, n*k, 5, zeros)
				c := make([]float64, m*n)
				b.SetBytes(int64(8 * (m*k + n*k + m*n)))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					blas.Gemm(blas.NoTrans, blas.Transpose, m, n, k, 1, a, m, bb, n, 0, c, m)
				}
				reportGflops(b, 2*m*n*k)
			})
		}
	}
}

// BenchmarkKernelSyrk measures the engine's diagonal update, Syrk
// Lower/NoTrans with alpha 1 and beta 0, at n = k = 128, dense data.
func BenchmarkKernelSyrk(b *testing.B) {
	const n, k = 128, 128
	rng := rand.New(rand.NewSource(1))
	a := kernelData(rng, n*k, 0, false)
	c := make([]float64, n*n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blas.Syrk(blas.Lower, blas.NoTrans, n, k, 1, a, n, 0, c, n)
	}
	reportGflops(b, int(blas.FlopsSyrk(n, k)))
}

// BenchmarkKernelTrsm measures the engine's off-diagonal factorization,
// Trsm Right/Lower/Transpose, on a 128×64 block against a 64×64 factor,
// dense data. The right-hand side is restored from a copy before every
// call (a 64 KiB copy, inside the timing), so the values do not drift.
func BenchmarkKernelTrsm(b *testing.B) {
	const m, n = 128, 64
	rng := rand.New(rand.NewSource(1))
	l := kernelData(rng, n*n, 0, false)
	for j := 0; j < n; j++ {
		l[j+j*n] = 4 + rng.Float64()
	}
	rhs := kernelData(rng, m*n, 0, false)
	x := make([]float64, m*n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(x, rhs)
		blas.Trsm(blas.Right, blas.Lower, blas.Transpose, m, n, 1, l, n, x, m)
	}
	reportGflops(b, int(blas.FlopsTrsm(blas.Right, m, n)))
}

// BenchmarkFactorizeEndToEnd measures a complete real factorization (the
// engine, not the model) of a mid-size problem on 4 ranks.
func BenchmarkFactorizeEndToEnd(b *testing.B) {
	a := gen.Laplace3D(10, 10, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Factorize(a, Options{Ranks: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkersScaling measures intra-rank workers (DESIGN.md §9) on a
// real factorization: one rank, 1/2/4/8 goroutines (the rank's own plus
// helpers) over the largest end-to-end problem. The EXPERIMENTS.md
// workers-scaling tables are produced from this benchmark. Kernel-compute
// scaling is bounded by GOMAXPROCS, so the pure-CPU group shows speedup
// only on hosts with idle cores; the stall group injects real-time stalls
// into Progress (an OS hiccup on the polling thread), which only the rank
// goroutine calls — alone it eats every stall between tasks, with helpers
// the stalls idle one lane while the others keep computing.
func BenchmarkWorkersScaling(b *testing.B) {
	a := gen.Laplace3D(12, 12, 12)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("cpu/workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Factorize(a, Options{Ranks: 1, Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("stalls/workers=%d", w), func(b *testing.B) {
			plan := FaultPlan{Seed: 7, StallWindow: 200 * time.Microsecond}
			plan.Rate[faults.RankStall] = 0.05
			for i := 0; i < b.N; i++ {
				if _, err := Factorize(a, Options{Ranks: 1, Workers: w, Faults: &plan}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSolveEndToEnd measures the distributed triangular solve.
func BenchmarkSolveEndToEnd(b *testing.B) {
	a := gen.Laplace3D(10, 10, 10)
	f, err := Factorize(a, Options{Ranks: 4})
	if err != nil {
		b.Fatal(err)
	}
	rhs := make([]float64, a.N)
	for i := range rhs {
		rhs[i] = 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.SolveDistributed(rhs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSymbolicAnalysis measures the symbolic phase alone.
func BenchmarkSymbolicAnalysis(b *testing.B) {
	a := gen.Thermal2D(128, 128, 6, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := symbolic.Analyze(a, ordering.NestedDissection, symbolic.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationAnalyticThresholds compares the brute-force-tuned
// thresholds with the analytically derived ones (§6 future work) on a real
// factorization.
func BenchmarkAblationAnalyticThresholds(b *testing.B) {
	a := gen.Flan3D(7, 7, 7, 1565)
	configs := map[string]gpu.Thresholds{
		"tuned":    gpu.DefaultThresholds(),
		"analytic": gpu.AnalyticThresholds(machine.Perlmutter()),
	}
	for name := range configs {
		th := configs[name]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Factorize(a, Options{
					Ranks: 4, RanksPerNode: 4, GPUsPerNode: 4, Thresholds: &th,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSweepProblemSize addresses §6's "how does symPACK perform on
// smaller problem sizes": modeled factorization time and baseline speedup
// across problem scales at a fixed 4 nodes.
func BenchmarkSweepProblemSize(b *testing.B) {
	sizes := []int{6, 9, 12}
	type pt struct {
		n      int
		sp, bl float64
	}
	var rows []pt
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, s := range sizes {
			a := gen.Flan3D(s, s, s, 1565)
			st, _, err := symbolic.Analyze(a, ordering.NestedDissection, symbolic.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			tg := symbolic.BuildTaskGraph(st)
			cfg := des.Config{
				Solver: des.SymPACK, Nodes: 4, RanksPerNode: 4, GPUsPerNode: 4,
				Machine: machine.Perlmutter(), Thresholds: gpu.DefaultThresholds(),
			}
			sp, err := des.Simulate(st, tg, cfg)
			if err != nil {
				b.Fatal(err)
			}
			cfg.Solver = des.Baseline
			bl, err := des.Simulate(st, tg, cfg)
			if err != nil {
				b.Fatal(err)
			}
			rows = append(rows, pt{n: a.N, sp: sp.FactorSeconds, bl: bl.FactorSeconds})
		}
	}
	b.Log("size sweep (4 nodes): n | symPACK | baseline | speedup")
	for _, r := range rows {
		b.Logf("  %6d %10.5gs %10.5gs %6.2fx", r.n, r.sp, r.bl, r.bl/r.sp)
	}
}

// BenchmarkSweepSparsity addresses §6's "problems with varying sparsity
// levels": the thermal generator at increasing void counts thins the
// matrix; modeled times and offload shares across the range.
func BenchmarkSweepSparsity(b *testing.B) {
	type pt struct {
		nnzPerRow float64
		sp        float64
		gpuShare  float64
	}
	var rows []pt
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, voids := range []int{0, 8, 24} {
			a := gen.Thermal2D(96, 96, voids, 2)
			st, _, err := symbolic.Analyze(a, ordering.NestedDissection, symbolic.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			tg := symbolic.BuildTaskGraph(st)
			res, err := des.Simulate(st, tg, des.Config{
				Solver: des.SymPACK, Nodes: 4, RanksPerNode: 4, GPUsPerNode: 4,
				Machine: machine.Perlmutter(), Thresholds: gpu.DefaultThresholds(),
			})
			if err != nil {
				b.Fatal(err)
			}
			rows = append(rows, pt{
				nnzPerRow: float64(a.NnzFull()) / float64(a.N),
				sp:        res.FactorSeconds,
				gpuShare:  res.GPUTaskShare,
			})
		}
	}
	b.Log("sparsity sweep (4 nodes): nnz/row | factor time | offloaded share")
	for _, r := range rows {
		b.Logf("  %6.2f %10.5gs %8.3f", r.nnzPerRow, r.sp, r.gpuShare)
	}
}

// BenchmarkAblationMapping quantifies §3.3's argument: the 2D block-cyclic
// distribution versus a 1D column distribution for the same fan-out
// algorithm.
func BenchmarkAblationMapping(b *testing.B) {
	p := problems(b)["flan"]
	var t2d, t1d float64
	for i := 0; i < b.N; i++ {
		cfg := des.Config{
			Solver: des.SymPACK, Nodes: 16, RanksPerNode: 4, GPUsPerNode: 4,
			Machine: machine.Perlmutter(), Thresholds: gpu.DefaultThresholds(),
		}
		r, err := des.Simulate(p.st, p.tg, cfg)
		if err != nil {
			b.Fatal(err)
		}
		t2d = r.FactorSeconds
		cfg.Mapping = symbolic.Map1DCols
		r, err = des.Simulate(p.st, p.tg, cfg)
		if err != nil {
			b.Fatal(err)
		}
		t1d = r.FactorSeconds
	}
	b.Logf("16 nodes, Flan factorization: 2D map %.5gs vs 1D map %.5gs (%.2fx)", t2d, t1d, t1d/t2d)
	if t1d <= t2d {
		b.Errorf("1D map (%.4gs) should be slower than 2D (%.4gs)", t1d, t2d)
	}
	b.ReportMetric(t1d/t2d, "2d-speedup")
}
