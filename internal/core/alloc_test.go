package core

import (
	"testing"

	"sympack/internal/gen"
	"sympack/internal/matrix"
	"sympack/internal/symbolic"
)

// TestFactorAllocBudget pins the per-task path of the engine to (almost) no
// heap allocation. Allocation counts are a deterministic function of the
// code and the problem — not of the host, the core count or the clock — so
// the budget is a hard assertion: at most perTask objects per executed task
// plus a constant for what a factorization sets up once (runtime, engines,
// slabs, index arrays, lane buffers, metric registries, the factor). Under
// fan-out nothing is allocated per task at all, at one rank or at four — an
// update is computed into its lane's buffer when its turn comes, a signal
// is a value in a queue that is reused, and a fetched block lands in its
// slot of the receive slab sized at setup — so the budget is that constant
// alone, whatever the size of the problem (thermal120 has 8× thermal40's
// tasks). Before the engine's structures were sized from the symbolic phase
// this was ≈ 7.8 per task at one rank; before the typed signals and the
// receive slab, 1–3 per task at four ranks. Only the fan-both rows keep a
// per-task slack, for what they allocate by design: each published
// contribution is a buffer of its own.
func TestFactorAllocBudget(t *testing.T) {
	problems := []struct {
		name string
		a    *matrix.SparseSym
	}{
		{"thermal40", gen.Thermal2D(40, 40, 3, 1)},
		{"laplace8", gen.Laplace3D(8, 8, 8)},
		{"thermal120", gen.Thermal2D(120, 120, 3, 1)},
	}
	rows := []struct {
		name    string
		opt     Options
		perTask float64
		fixed   float64
	}{
		{"fanout-r1w1", Options{Ranks: 1, Workers: 1}, 0, 1000},
		{"fanout-r4w1", Options{Ranks: 4, Workers: 1}, 0, 2500},
		{"fanboth-r1w1", Options{Ranks: 1, Workers: 1, Formulation: FanBoth}, 1.5, 1500},
		{"fanboth-r4w1", Options{Ranks: 4, Workers: 1, Formulation: FanBoth}, 3, 1500},
	}
	for _, p := range problems {
		base := Options{}.withDefaults()
		st, pa, err := symbolic.Analyze(p.a, base.Ordering, *base.Symbolic)
		if err != nil {
			t.Fatal(err)
		}
		tg := symbolic.BuildTaskGraph(st)
		for _, row := range rows {
			tasks := row.opt.Formulation.TaskCount(tg)
			allocs := testing.AllocsPerRun(3, func() {
				if _, err := FactorizeAnalyzed(st, pa, row.opt); err != nil {
					t.Fatal(err)
				}
			})
			budget := row.perTask*float64(tasks) + row.fixed
			t.Logf("%s/%s: %.0f allocs for %d tasks (%.2f per task, budget %.0f)",
				p.name, row.name, allocs, tasks, allocs/float64(tasks), budget)
			if allocs > budget {
				t.Errorf("%s/%s: %.0f allocs for %d tasks, budget %.0f (%.2f per task + %.0f)",
					p.name, row.name, allocs, tasks, budget, row.perTask, row.fixed)
			}
		}
	}
}

// TestFP32AllocParity pins fp32 as a storage format: rounding a block in
// place when it is finalised costs no memory, so an fp32 factorization
// allocates what the fp64 one does (the slack absorbs what the differing
// option value moves). The converting float32 kernel adapters this replaced
// made up to three buffers per kernel call — six times the allocations here.
func TestFP32AllocParity(t *testing.T) {
	base := Options{}.withDefaults()
	st, pa, err := symbolic.Analyze(gen.Laplace3D(10, 10, 10), base.Ordering, *base.Symbolic)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(p Precision) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := FactorizeAnalyzed(st, pa, Options{Ranks: 1, Workers: 1, Precision: p}); err != nil {
				t.Fatal(err)
			}
		})
	}
	const slack = 16
	fp64, fp32 := allocs(PrecFP64), allocs(PrecFP32)
	t.Logf("fp64 %.0f allocs, fp32 %.0f allocs", fp64, fp32)
	if fp32 > fp64+slack {
		t.Errorf("fp32 factorization: %.0f allocs, fp64 %.0f: want at most %d more", fp32, fp64, slack)
	}
}
