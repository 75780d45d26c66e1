package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"sympack"
	"sympack/internal/core"
	"sympack/internal/gen"
	"sympack/internal/matrix"
)

// directDef is a workload that calls the solver in-process. Ranks and
// Workers are always pinned, so SYMPACK_WORKERS and the core count cannot
// change what is measured; GPUs, faults, trace and MetricsAddr stay off.
type directDef struct {
	name           string
	ranks, workers int
	build          func(seed int64, smoke bool) *matrix.SparseSym
	// reuse: analyze once in set-up; an op is ShiftDiag → Factorize →
	// SolveMulti(nrhs). Otherwise an op is Analyze → Factorize → solve.
	reuse bool
	nrhs  int
	dist  bool // solve with SolveDistributed
}

var directDefs = []directDef{
	{name: "flan_w1", ranks: 1, workers: 1, build: func(seed int64, smoke bool) *matrix.SparseSym {
		if smoke {
			return gen.Flan3D(5, 5, 5, seed)
		}
		return gen.Flan3D(14, 14, 14, seed)
	}},
	{name: "thermal_w1", ranks: 1, workers: 1, build: func(seed int64, smoke bool) *matrix.SparseSym {
		if smoke {
			return gen.Thermal2D(40, 40, 3, seed)
		}
		return gen.Thermal2D(256, 256, 12, seed)
	}},
	{name: "laplace_r4", ranks: 4, workers: 1, dist: true, build: laplace},
	{name: "laplace_reuse_pool", ranks: 1, workers: 2, reuse: true, nrhs: 8, build: laplace},
}

// laplace has no random part: on the two Laplace workloads the seed drives
// only the right-hand sides.
func laplace(_ int64, smoke bool) *matrix.SparseSym {
	if smoke {
		return gen.Laplace3D(8, 8, 8)
	}
	return gen.Laplace3D(24, 24, 24)
}

// randomRHS draws entries from [0.5, 1.5).
func randomRHS(rng *rand.Rand, n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = 0.5 + rng.Float64()
	}
	return b
}

// residualChecker computes relative residuals without allocating, so the
// checks between timed ops do not show up in alloc_mb_per_op.
type residualChecker struct{ y []float64 }

func (c *residualChecker) residual(a *matrix.SparseSym, x, b []float64) float64 {
	if len(x) != a.N || len(b) != a.N {
		return math.Inf(1)
	}
	if len(c.y) < a.N {
		c.y = make([]float64, a.N)
	}
	y := c.y[:a.N]
	a.MulVecTo(y, x)
	var rr, bb float64
	for i := range y {
		d := b[i] - y[i]
		rr += d * d
		bb += b[i] * b[i]
	}
	if r := math.Sqrt(rr / bb); !math.IsNaN(r) {
		return r
	}
	return math.Inf(1)
}

// directState is a direct workload after set-up.
type directState struct {
	def *directDef
	a   *matrix.SparseSym
	opt core.Options
	bs  [][]float64       // right-hand sides (one unless reuse)
	an  *sympack.Analysis // reuse only
	res residualChecker
}

// opTimes are the timings of one op, in seconds. moreSolves are repeats of
// the single-RHS solve, made after the op's clock has stopped.
type opTimes struct {
	solution, factor, solve float64
	moreSolves              []float64
}

// extraSolves is how often a single-RHS op repeats its solve call once
// solution_s has been taken. A solve is a hundredth of an op; with one
// sample per op its median moved by a tenth between runs of the same code.
const extraSolves = 4

// setup generates the inputs from the seed, runs the one Analyze of the
// reuse workload and the warm-up ops. Everything here is setup_s.
func (d *directDef) setup(cfg *config, layers layerSamples) (*directState, error) {
	t0 := time.Now()
	s := &directState{def: d, a: d.build(cfg.seed, cfg.smoke), opt: core.Options{Ranks: d.ranks, Workers: d.workers}}
	if layers != nil {
		layers.add("gen.build_s", time.Since(t0).Seconds())
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	for i := 0; i < max(1, d.nrhs); i++ {
		s.bs = append(s.bs, randomRHS(rng, s.a.N))
	}
	if d.reuse {
		an, err := sympack.Analyze(s.a, s.opt)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up Analyze: %w", d.name, err)
		}
		s.an = an
	}
	for w := 0; w < cfg.warmups; w++ {
		if _, err := s.op(-1-w, tracer{}); err != nil {
			return nil, fmt.Errorf("%s: warm-up op: %w", d.name, err)
		}
	}
	return s, nil
}

// shift is the diagonal shift of reuse op i: distinct from its neighbours,
// bounded, and positive so A + σI stays positive definite.
func shift(i int) float64 { return 0.1 + 0.01*float64(((i%64)+64)%64) }

// op runs one operation and checks its answer outside the timers. The error
// is a failed op (the solver returned an error or a wrong answer), with
// whatever timings were taken before it.
func (s *directState) op(i int, t tracer) (opTimes, error) {
	var tm opTimes
	var f *core.Factor
	var err error
	a := s.a
	start := time.Now()
	if s.def.reuse {
		t.time("matrix.ShiftDiag", func() { a, err = s.a.ShiftDiag(shift(i)) })
		if err != nil {
			return tm, fmt.Errorf("ShiftDiag: %w", err)
		}
	} else {
		t.time("sympack.Analyze", func() { s.an, err = sympack.Analyze(a, s.opt) })
		if err != nil {
			return tm, fmt.Errorf("Analyze: %w", err)
		}
	}
	tm.factor = t.time("sympack.Analysis.Factorize", func() { f, err = s.an.Factorize(a) })
	if err != nil {
		return tm, fmt.Errorf("Factorize: %w", err)
	}
	xs := make([][]float64, 1)
	span, solve := "core.Factor.Solve", func() { xs[0], err = f.Solve(s.bs[0]) }
	switch {
	case s.def.reuse:
		span, solve = "core.Factor.SolveMulti", func() { xs, err = f.SolveMulti(s.bs) }
	case s.def.dist:
		span, solve = "core.Factor.SolveDistributed", func() { xs[0], err = f.SolveDistributed(s.bs[0]) }
	}
	tm.solve = t.time(span, solve)
	tm.solution = time.Since(start).Seconds()
	for r := 0; r < extraSolves && !s.def.reuse && err == nil; r++ {
		tm.moreSolves = append(tm.moreSolves, tracer{}.time(span, solve))
	}
	if err != nil {
		return tm, fmt.Errorf("solve: %w", err)
	}
	for k := range s.bs {
		if k >= len(xs) {
			return tm, fmt.Errorf("solve returned %d of %d solutions", len(xs), len(s.bs))
		}
		if r := s.res.residual(a, xs[k], s.bs[k]); r > residualTol {
			return tm, fmt.Errorf("rhs %d: relative residual %.3g > %g", k, r, residualTol)
		}
	}
	return tm, nil
}

// opSamples accumulates the timings of the ops of one run.
type opSamples struct {
	solution, factor, solve []float64
	attempted, failed       int
}

func (o *opSamples) add(workload string, i int, tm opTimes, err error) {
	o.attempted++
	if err != nil {
		o.failed++
		fmt.Fprintf(os.Stderr, "symbench: %s: op %d failed: %v\n", workload, i, err)
	}
	// A timing is kept whenever the call it times returned, right answer or
	// wrong, so sample sets do not shift when a defect is fixed.
	if tm.solution > 0 {
		o.solution = append(o.solution, tm.solution)
	}
	if tm.factor > 0 {
		o.factor = append(o.factor, tm.factor)
	}
	if tm.solve > 0 {
		o.solve = append(o.solve, tm.solve)
	}
	o.solve = append(o.solve, tm.moreSolves...)
}

// runUntraced is pass 1 of a direct workload: several complete set-ups (the
// median is setup_s), then ops until the run's seconds are used up.
func (d *directDef) runUntraced(cfg *config) (*workloadResult, error) {
	begin := time.Now()
	var st *directState
	setups, err := cfg.timeSetups(func() { st = nil }, func() (err error) {
		st, err = d.setup(cfg, nil)
		return err
	})
	if err != nil {
		return nil, err
	}

	var ops opSamples
	runtime.GC()
	m0 := readMem()
	deadline := time.Now().Add(cfg.window())
	for i := 0; i < cfg.minOps || time.Now().Before(deadline); i++ {
		runtime.GC()
		tm, err := st.op(i, tracer{})
		ops.add(d.name, i, tm, err)
	}
	mb, mallocs := allocDelta(m0, readMem())

	res := newResult(d.name, begin, ops.attempted, ops.failed)
	res.timing("setup_s", setups)
	res.timing("solution_s", ops.solution)
	res.timing("factor_s", ops.factor)
	res.timing("solve_s", ops.solve)
	res.value("alloc_mb_per_op", mb/float64(ops.attempted))
	res.value("allocs_per_op", mallocs/float64(ops.attempted))
	res.value("ops_per_s", float64(len(ops.solution))/sum(ops.solution))
	return res, nil
}

// runTraced is pass 2: per iteration one op with span recording off, the
// same op with it on (their ratio is the tracing overhead), and the
// decomposed pipeline.
func (d *directDef) runTraced(cfg *config, rec *recorder) (*workloadResult, error) {
	begin := time.Now()
	layers := layerSamples{}
	st, err := d.setup(cfg, layers)
	if err != nil {
		return nil, err
	}
	in := &pipelineInput{a: st.a, b: st.bs[0], dist: d.dist, opt: st.opt}
	if d.reuse {
		in.bs = st.bs
	}
	var plain, traced opSamples
	deadline := time.Now().Add(cfg.window())
	for i := 0; i < cfg.minTracedOps || time.Now().Before(deadline); i++ {
		runtime.GC()
		tm, err := st.op(i, tracer{})
		plain.add(d.name, i, tm, err)

		runtime.GC()
		root, done := tracer{rec: rec, workload: d.name, parent: -1, opID: i}.under("op")
		tm, err = st.op(i, root)
		traced.add(d.name, i, tm, err)

		err = decomposed(root, in, layers, &st.res)
		done()
		traced.attempted++
		if err != nil {
			traced.failed++
			fmt.Fprintf(os.Stderr, "symbench: %s: decomposed pipeline %d failed: %v\n", d.name, i, err)
		}
	}
	res := newResult(d.name, begin, plain.attempted+traced.attempted, plain.failed+traced.failed)
	res.layers(layers)
	res.layer("failed_ops_ratio", float64(res.Failed)/float64(res.Attempted))
	res.layer("trace.overhead_ratio", median(traced.solution)/median(plain.solution)-1)
	return res, nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
