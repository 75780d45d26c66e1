package main

import (
	"fmt"
	"runtime"
	"time"

	"sympack/internal/baseline"
	"sympack/internal/core"
	"sympack/internal/etree"
	"sympack/internal/matrix"
	"sympack/internal/metrics"
	"sympack/internal/ordering"
	"sympack/internal/symbolic"
)

const mib = 1 << 20

// residualTol is the accuracy every answer is held to: relative residual
// ‖b − A·x‖₂/‖b‖₂ against the matrix the caller intended.
const residualTol = 1e-10

// layerSamples collects one reading per traced iteration for each per-layer
// metric; the run reports the median of each.
type layerSamples map[string][]float64

func (l layerSamples) add(name string, v float64) { l[name] = append(l[name], v) }

// tracer times calls and records them as child spans of one parent.
type tracer struct {
	rec      *recorder
	workload string
	parent   int
	opID     int
}

// time runs f, records it as a span and returns its seconds.
func (t tracer) time(name string, f func()) float64 {
	id := t.rec.begin(t.workload, name, t.parent, t.opID)
	t0 := time.Now()
	f()
	d := time.Since(t0).Seconds()
	t.rec.end(id)
	return d
}

// under opens a span and returns a tracer whose spans are its children, with
// the function that closes it.
func (t tracer) under(name string) (tracer, func()) {
	id := t.rec.begin(t.workload, name, t.parent, t.opID)
	child := t
	child.parent = id
	return child, func() { t.rec.end(id) }
}

func readMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// allocDelta is what was allocated between two MemStats readings.
func allocDelta(m0, m1 runtime.MemStats) (mb, mallocs float64) {
	return float64(m1.TotalAlloc-m0.TotalAlloc) / mib, float64(m1.Mallocs - m0.Mallocs)
}

// pipelineInput is one matrix and how its workload factors and solves it.
type pipelineInput struct {
	a    *matrix.SparseSym
	b    []float64
	bs   [][]float64 // when set, SolveMulti is timed too
	dist bool        // when set, SolveDistributed is timed too
	opt  core.Options
}

// analysisSteps runs ordering → permute → etree → permute → etree the way
// symbolic.Analyze does, one span each, and returns the seconds they took
// together. Its intermediates die with it, so they do not sit in the heap
// while the later steps are measured.
func analysisSteps(t tracer, a *matrix.SparseSym, out layerSamples) (float64, error) {
	var perm1, post []int32
	var a1, a2 *matrix.SparseSym
	var err error
	runtime.GC()
	m0 := readMem()
	tOrd := t.time("ordering.Compute", func() { perm1, err = ordering.Compute(ordering.NestedDissection, a) })
	if err != nil {
		return 0, fmt.Errorf("ordering.Compute: %w", err)
	}
	ordMB, _ := allocDelta(m0, readMem())
	tPerm := t.time("matrix.Permute", func() { a1, err = a.Permute(perm1) })
	if err != nil {
		return 0, fmt.Errorf("Permute(ordering): %w", err)
	}
	tEtree := t.time("etree.Compute+Postorder", func() { post = etree.Compute(a1).Postorder() })
	tPerm += t.time("matrix.Permute", func() { a2, err = a1.Permute(post) })
	if err != nil {
		return 0, fmt.Errorf("Permute(postorder): %w", err)
	}
	ident := make([]int32, a.N)
	for i := range ident {
		ident[i] = int32(i)
	}
	tEtree += t.time("etree.Compute+ColCounts", func() { _ = etree.Compute(a2).ColCounts(a2, ident) })
	out.add("ordering.compute_s", tOrd)
	out.add("ordering.alloc_mb", ordMB)
	out.add("etree.compute_s", tEtree)
	out.add("matrix.permute_s", tPerm)
	return tOrd + tPerm + tEtree, nil
}

// decomposed runs the public steps of an op one by one — ordering, etree,
// permutation, symbolic analysis, task graph, kernel replay, engine and
// baseline factorization, solves — each in its own span, next to the whole
// calls, because spans cannot yet go inside symbolic.Analyze or the engine.
// MemStats are read before and after a timed call, never inside it.
func decomposed(t tracer, in *pipelineInput, out layerSamples, res *residualChecker) error {
	t, done := t.under("decomposed")
	defer done()
	a := in.a
	tSteps, err := analysisSteps(t, a, out)
	if err != nil {
		return err
	}

	// The whole symbolic phase; what the standalone steps above do not
	// explain is its own work (partition, supernode rows, blocks, costs).
	var st *symbolic.Structure
	var pa *matrix.SparseSym
	runtime.GC()
	m0 := readMem()
	tSym := t.time("symbolic.Analyze", func() { st, pa, err = symbolic.Analyze(a, ordering.NestedDissection, symbolic.DefaultOptions()) })
	if err != nil {
		return fmt.Errorf("symbolic.Analyze: %w", err)
	}
	symMB, symAllocs := allocDelta(m0, readMem())
	out.add("symbolic.analyze_s", tSym)
	out.add("symbolic.self_s", tSym-tSteps)
	out.add("symbolic.alloc_mb", symMB)
	out.add("symbolic.allocs", symAllocs)

	var tg *symbolic.TaskGraph
	tTG := t.time("symbolic.BuildTaskGraph", func() { tg = symbolic.BuildTaskGraph(st) })
	out.add("symbolic.taskgraph_s", tTG)
	out.add("symbolic.supernodes", float64(st.NumSupernodes()))
	out.add("symbolic.blocks", float64(st.NumBlocks()))
	out.add("symbolic.updates", float64(len(tg.Updates)))
	out.add("symbolic.nnz_l", float64(st.NnzL))
	out.add("symbolic.factor_flop", float64(st.FactorFlop))

	// Kernel replay: the same calls the engine will make, nothing else. Its
	// buffers are allocated and filled before the timer starts and dropped
	// before the engine is measured.
	rp := newReplay(st, tg)
	rp.reset()
	var census kernelCensus
	tReplay := t.time("blas.replay", func() { census, err = rp.run() })
	rp = nil
	if err != nil {
		return err
	}
	out.add("blas.replay_s", tReplay)
	out.add("blas.replay_gflops", float64(census.Flop)/tReplay/1e9)
	out.add("blas.peak_gflops", peakGflops())
	out.add("blas.potrf_calls", float64(census.Potrf))
	out.add("blas.trsm_calls", float64(census.Trsm))
	out.add("blas.syrk_calls", float64(census.Syrk))
	out.add("blas.gemm_calls", float64(census.Gemm))
	out.add("blas.computed_mb", float64(census.Bytes)/mib)
	out.add("blas.flop_per_byte", float64(census.Flop)/float64(census.Bytes))

	// The engine on the same structure, then the plain right-looking loop.
	var f *core.Factor
	runtime.GC()
	m0 = readMem()
	tCore := t.time("core.FactorizeAnalyzed", func() { f, err = core.FactorizeAnalyzed(st, pa, in.opt) })
	if err != nil {
		return fmt.Errorf("core.FactorizeAnalyzed: %w", err)
	}
	m1 := readMem()
	facMB, facAllocs := allocDelta(m0, m1)
	out.add("core.factor_s", tCore)
	out.add("core.kernel_share", tReplay/tCore)
	if in.opt.Ranks == 1 && in.opt.Workers == 1 {
		out.add("core.overhead_s", tCore-tTG-tReplay)
	}
	out.add("core.factor_alloc_mb", facMB)
	out.add("core.factor_allocs", facAllocs)
	out.add("core.gc_cycles", float64(m1.NumGC-m0.NumGC))
	out.add("core.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6)
	out.add("core.heap_after_mb", float64(m1.HeapAlloc)/mib)

	tBase := t.time("baseline.FactorizeAnalyzed", func() { _, err = baseline.FactorizeAnalyzed(st, pa) })
	if err != nil {
		return fmt.Errorf("baseline.FactorizeAnalyzed: %w", err)
	}
	out.add("baseline.factor_s", tBase)
	out.add("core.vs_baseline", tCore/tBase)

	// Solves against the engine's factor.
	var x []float64
	runtime.GC()
	m0 = readMem()
	out.add("core.solve_s", t.time("core.Factor.Solve", func() { x, err = f.Solve(in.b) }))
	if err != nil {
		return fmt.Errorf("Factor.Solve: %w", err)
	}
	_, solveAllocs := allocDelta(m0, readMem())
	out.add("core.solve_allocs", solveAllocs)
	if r := res.residual(a, x, in.b); r > residualTol {
		return fmt.Errorf("Factor.Solve: relative residual %.3g", r)
	}
	if in.bs != nil {
		var xs [][]float64
		out.add("core.solve_multi_s", t.time("core.Factor.SolveMulti", func() { xs, err = f.SolveMulti(in.bs) }))
		if err != nil {
			return fmt.Errorf("Factor.SolveMulti: %w", err)
		}
		for i := range xs {
			if r := res.residual(a, xs[i], in.bs[i]); r > residualTol {
				return fmt.Errorf("Factor.SolveMulti: rhs %d: relative residual %.3g", i, r)
			}
		}
	}
	if in.dist {
		out.add("core.solve_dist_s", t.time("core.Factor.SolveDistributed", func() { x, err = f.SolveDistributed(in.b) }))
		if err != nil {
			return fmt.Errorf("Factor.SolveDistributed: %w", err)
		}
		if r := res.residual(a, x, in.b); r > residualTol {
			return fmt.Errorf("Factor.SolveDistributed: relative residual %.3g", r)
		}
	}
	y := make([]float64, a.N)
	out.add("matrix.mulvec_s", t.time("matrix.MulVecTo", func() { a.MulVecTo(y, x) }))

	// Counts the program already keeps, read once the op is over.
	snap := f.Metrics.Snapshot()
	for name, family := range map[string]string{
		"core.tasks_total":          "sympack_core_tasks_total",
		"core.dep_decrements":       "sympack_core_dep_decrements_total",
		"core.updates_parked":       "sympack_core_updates_parked_total",
		"core.rtq_peak":             "sympack_core_rtq_peak",
		"core.worker_waits":         "sympack_core_worker_waits_total",
		"core.backoff_waits":        "sympack_core_backoff_waits_total",
		"core.rerequests":           "sympack_core_rerequests_total",
		"upcxx.signals_sent":        "sympack_upcxx_signals_sent_total",
		"upcxx.rma_gets":            "sympack_upcxx_rma_gets_total",
		"upcxx.progress_iterations": "sympack_upcxx_progress_iterations_total",
		"upcxx.transfer_retries":    "sympack_upcxx_transfer_retries_total",
	} {
		out.add(name, familySum(snap, family))
	}
	out.add("upcxx.rma_get_mb", familySum(snap, "sympack_upcxx_rma_get_bytes")/mib)
	return nil
}

// familySum adds up every series of one metric family: the value of
// counters and gauges, the sum of observations of histograms.
func familySum(snap metrics.Snapshot, family string) float64 {
	var total float64
	for i := range snap.Series {
		if se := &snap.Series[i]; se.Name == family {
			if se.Kind == "histogram" {
				total += se.Sum
			} else {
				total += se.Value
			}
		}
	}
	return total
}
