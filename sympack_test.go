package sympack

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

func TestQuickstartFlow(t *testing.T) {
	a := Laplace2D(20, 20)
	rng := rand.New(rand.NewSource(1))
	xTrue := make([]float64, a.N)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := a.MulVec(xTrue)
	f, err := Factorize(a, Options{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	x, err := f.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if r := ResidualNorm(a, x, b); r > 1e-10 {
		t.Fatalf("residual %g", r)
	}
}

func TestBuilderFlow(t *testing.T) {
	bld := NewBuilder(3)
	bld.Add(0, 0, 4)
	bld.Add(1, 1, 4)
	bld.Add(2, 2, 4)
	bld.Add(1, 0, 1)
	bld.Add(2, 1, 1)
	a, err := bld.ToSym()
	if err != nil {
		t.Fatal(err)
	}
	x, err := SolveOnce(a, []float64{1, 2, 3}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r := ResidualNorm(a, x, []float64{1, 2, 3}); r > 1e-12 {
		t.Fatalf("residual %g", r)
	}
}

func TestAnalysisReuse(t *testing.T) {
	a := Thermal2D(24, 24, 2, 7)
	an, err := Analyze(a, Options{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if an.NumSupernodes() <= 0 || an.NnzFactor() <= 0 || an.Flops() <= 0 {
		t.Fatal("analysis stats empty")
	}
	rng := rand.New(rand.NewSource(2))
	for _, sigma := range []float64{0, 1, 5} {
		sh, err := a.ShiftDiag(sigma)
		if err != nil {
			t.Fatal(err)
		}
		f, err := an.Factorize(sh)
		if err != nil {
			t.Fatal(err)
		}
		b := make([]float64, a.N)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := f.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		if r := ResidualNorm(sh, x, b); r > 1e-10 {
			t.Fatalf("sigma=%g residual %g", sigma, r)
		}
	}
}

func TestBaselineAgreesWithCore(t *testing.T) {
	a := Bone3D(4, 4, 4, 0.3, 3)
	bf, err := FactorizeBaseline(a, OrderNestedDissection)
	if err != nil {
		t.Fatal(err)
	}
	cf, err := Factorize(a, Options{Ordering: OrderNestedDissection})
	if err != nil {
		t.Fatal(err)
	}
	for j := int32(0); j < int32(a.N); j++ {
		for i := j; i < int32(a.N); i++ {
			if d := math.Abs(bf.L(i, j) - cf.L(i, j)); d > 1e-9 {
				t.Fatalf("factors disagree at (%d,%d) by %g", i, j, d)
			}
		}
	}
}

// TestOrderNaturalHonoured: OrderNatural reaches the analysis from every
// entry point — Factorize, Analyze and FactorizeBaseline — while the zero
// value still orders by nested dissection. Laplace2D 9×9 fills to nnz(L)
// 843 in the natural order and to 652 under nested dissection.
func TestOrderNaturalHonoured(t *testing.T) {
	a := Laplace2D(9, 9)
	for _, tc := range []struct {
		ord  OrderingKind
		nnzL int64
	}{{OrderNatural, 843}, {0, 652}, {OrderNestedDissection, 652}} {
		f, err := Factorize(a, Options{Ordering: tc.ord})
		if err != nil {
			t.Fatal(err)
		}
		an, err := Analyze(a, Options{Ordering: tc.ord})
		if err != nil {
			t.Fatal(err)
		}
		bf, err := FactorizeBaseline(a, tc.ord)
		if err != nil {
			t.Fatal(err)
		}
		if f.St.NnzL != tc.nnzL || an.NnzFactor() != tc.nnzL || bf.St.NnzL != tc.nnzL {
			t.Fatalf("%v: nnz(L) Factorize %d, Analyze %d, FactorizeBaseline %d; want %d",
				tc.ord, f.St.NnzL, an.NnzFactor(), bf.St.NnzL, tc.nnzL)
		}
	}
}

func TestIORoundTripThroughFacade(t *testing.T) {
	a := RandomSPD(15, 0.3, 4)
	var mm, rb bytes.Buffer
	if err := WriteMatrixMarket(&mm, a); err != nil {
		t.Fatal(err)
	}
	if err := WriteRutherfordBoeing(&rb, a, "facade"); err != nil {
		t.Fatal(err)
	}
	a2, err := ReadMatrixMarket(&mm)
	if err != nil {
		t.Fatal(err)
	}
	a3, err := ReadRutherfordBoeing(&rb)
	if err != nil {
		t.Fatal(err)
	}
	if a2.Nnz() != a.Nnz() || a3.Nnz() != a.Nnz() {
		t.Fatal("round trips lost entries")
	}
}

func TestGeneratorsExported(t *testing.T) {
	if Laplace3D(3, 3, 3).N != 27 {
		t.Fatal("laplace3d")
	}
	if Flan3D(2, 2, 2, 1).N != 24 {
		t.Fatal("flan3d")
	}
	if m := Perlmutter(); m.GPUsPerNode != 4 {
		t.Fatal("perlmutter")
	}
	if th := DefaultThresholds(); th.Gemm <= 0 {
		t.Fatal("thresholds")
	}
}

func TestGPURunThroughFacade(t *testing.T) {
	a := Flan3D(3, 3, 2, 1)
	th := Thresholds{Potrf: 64, Trsm: 128, Syrk: 96, Gemm: 96}
	f, err := Factorize(a, Options{
		Ranks: 2, RanksPerNode: 2, GPUsPerNode: 1,
		Thresholds: &th, Fallback: FallbackCPU,
	})
	if err != nil {
		t.Fatal(err)
	}
	var gpuOps int64
	for _, s := range f.Stats.PerRank {
		for i := range s.GPU {
			gpuOps += s.GPU[i]
		}
	}
	if gpuOps == 0 {
		t.Fatal("expected offloaded ops")
	}
}

func TestFacadeSaveLoadSelInvRefine(t *testing.T) {
	a := Thermal2D(16, 16, 2, 3)
	f, err := Factorize(a, Options{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := LoadFactor(&buf)
	if err != nil {
		t.Fatal(err)
	}
	si, err := g.SelectedInverse()
	if err != nil {
		t.Fatal(err)
	}
	if len(si.Diag()) != a.N {
		t.Fatal("selected inverse diag length")
	}
	b := make([]float64, a.N)
	b[0] = 1
	x, rel, _, err := g.SolveRefined(a, b, 1e-14, 3)
	if err != nil || rel > 1e-12 {
		t.Fatalf("refined solve: rel=%g err=%v", rel, err)
	}
	if r := ResidualNorm(a, x, b); r > 1e-12 {
		t.Fatalf("residual %g", r)
	}
}

func TestFacadeTrace(t *testing.T) {
	rec := NewTraceRecorder()
	a := Laplace2D(8, 8)
	if _, err := Factorize(a, Options{Ranks: 2, Trace: rec}); err != nil {
		t.Fatal(err)
	}
	if rec.Len() == 0 {
		t.Fatal("no events recorded")
	}
}

// TestRefactorAllocBudget is the analyse-once, refactor-many shape of the
// paper's PEXSI use case (§5.3) and of symbench's laplace_reuse_pool: one
// Analyze, then Analysis.Factorize of a shifted matrix on one rank with two
// workers. Allocation counts are a deterministic function of the code and
// the problem, so the budget is a hard gate, and it is one constant for
// every size: a refactorization allocates what it sets up once (task graph,
// runtime, engine arrays, lane buffers, slab, metrics, the factor), and
// nothing per update. With an update-scratch pool that started cold every
// factorization it was 1.2k / 3.8k / 11.4k at n = 8 / 14 / 20.
func TestRefactorAllocBudget(t *testing.T) {
	const budget = 1000
	for _, n := range []int{8, 14, 20} {
		a := Laplace3D(n, n, n)
		an, err := Analyze(a, Options{Ranks: 1, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		sh, err := a.ShiftDiag(0.5)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := an.Factorize(sh); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("laplace3d n=%d: %.0f allocs per refactorization (budget %d)", n, allocs, budget)
		if allocs > budget {
			t.Errorf("laplace3d n=%d: %.0f allocs per refactorization, budget %d", n, allocs, budget)
		}
	}
}
