package core

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"sympack/internal/blas"
	"sympack/internal/gen"
	"sympack/internal/gpu"
	"sympack/internal/matrix"
	"sympack/internal/ordering"
	"sympack/internal/symbolic"
)

// reconstructError returns max |(L·Lᵀ − PAPᵀ)(i,j)| over the lower triangle
// for small matrices, via dense reconstruction.
func reconstructError(t *testing.T, f *Factor, a *matrix.SparseSym) float64 {
	t.Helper()
	n := a.N
	if n > 400 {
		t.Fatalf("reconstructError for small n only")
	}
	pa, err := a.Permute(f.St.Perm)
	if err != nil {
		t.Fatal(err)
	}
	l := make([]float64, n*n)
	for j := int32(0); j < int32(n); j++ {
		for i := j; i < int32(n); i++ {
			l[i+j*int32(n)] = f.L(i, j)
		}
	}
	rec := make([]float64, n*n)
	blas.RefGemm(blas.NoTrans, blas.Transpose, n, n, n, 1, l, n, l, n, 0, rec, n)
	var worst float64
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			d := math.Abs(rec[i+j*n] - pa.At(i, j))
			if d > worst {
				worst = d
			}
		}
	}
	return worst
}

func solveCheck(t *testing.T, a *matrix.SparseSym, f *Factor, seed int64) float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	xTrue := make([]float64, a.N)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := a.MulVec(xTrue)
	x, err := f.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	return ResidualNorm(a, x, b)
}

func testProblems() map[string]*matrix.SparseSym {
	return map[string]*matrix.SparseSym{
		"laplace2d": gen.Laplace2D(9, 8),
		"laplace3d": gen.Laplace3D(4, 4, 3),
		"flan":      gen.Flan3D(2, 2, 2, 1),
		"bone":      gen.Bone3D(4, 4, 4, 0.3, 2),
		"thermal":   gen.Thermal2D(11, 11, 2, 3),
		"random":    gen.RandomSPD(50, 0.1, 4),
		"dense":     gen.RandomSPD(20, 1.0, 5),
		"tiny":      gen.Laplace2D(1, 1),
		"diag":      gen.RandomSPD(7, 0, 6),
	}
}

func TestFactorizeSequentialCorrect(t *testing.T) {
	for name, a := range testProblems() {
		f, err := Factorize(a, Options{Ranks: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if e := reconstructError(t, f, a); e > 1e-8 {
			t.Fatalf("%s: reconstruction error %g", name, e)
		}
		if r := solveCheck(t, a, f, 1); r > 1e-10 {
			t.Fatalf("%s: residual %g", name, r)
		}
	}
}

func TestFactorizeMultiRankMatchesSequential(t *testing.T) {
	for name, a := range testProblems() {
		ref, err := Factorize(a, Options{Ranks: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, p := range []int{2, 3, 4, 7} {
			f, err := Factorize(a, Options{Ranks: p})
			if err != nil {
				t.Fatalf("%s p=%d: %v", name, p, err)
			}
			// Same ordering options ⇒ identical structure; factors must
			// agree to rounding.
			if len(f.Data) != len(ref.Data) {
				t.Fatalf("%s p=%d: block count differs", name, p)
			}
			for bid := range f.Data {
				for i := range f.Data[bid] {
					if d := math.Abs(f.Data[bid][i] - ref.Data[bid][i]); d > 1e-9 {
						t.Fatalf("%s p=%d: block %d entry %d differs by %g", name, p, bid, i, d)
					}
				}
			}
			if r := solveCheck(t, a, f, 2); r > 1e-10 {
				t.Fatalf("%s p=%d: residual %g", name, p, r)
			}
		}
	}
}

func TestFactorizeWithGPU(t *testing.T) {
	for name, a := range testProblems() {
		f, err := Factorize(a, Options{
			Ranks: 4, RanksPerNode: 4, GPUsPerNode: 2,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if e := reconstructError(t, f, a); e > 1e-8 {
			t.Fatalf("%s: reconstruction error %g", name, e)
		}
		if r := solveCheck(t, a, f, 3); r > 1e-10 {
			t.Fatalf("%s: residual %g", name, r)
		}
	}
}

func TestGPUOffloadSplit(t *testing.T) {
	// A problem with large supernodes must offload some ops while keeping
	// small ones on the CPU (the Fig. 6 behaviour): thresholds low enough
	// to trigger, structure irregular enough to keep small blocks around.
	a := gen.Flan3D(3, 3, 3, 1)
	th := gpu.Thresholds{Potrf: 64, Trsm: 256, Syrk: 128, Gemm: 128}
	f, err := Factorize(a, Options{
		Ranks: 2, RanksPerNode: 2, GPUsPerNode: 2, Thresholds: &th,
	})
	if err != nil {
		t.Fatal(err)
	}
	var cpu, gpuOps int64
	for _, s := range f.Stats.PerRank {
		for i := range s.CPU {
			cpu += s.CPU[i]
			gpuOps += s.GPU[i]
		}
	}
	if gpuOps == 0 {
		t.Fatal("no operations offloaded despite low thresholds")
	}
	if cpu == 0 {
		t.Fatal("no operations stayed on CPU")
	}
	if e := reconstructError(t, f, a); e > 1e-8 {
		t.Fatalf("reconstruction error %g", e)
	}
}

// A diagonal fetched straight into device memory must be freed once the
// rank's last TRSM against it has run: on four ranks sharing one device most
// diagonals are remote to the panel owners, and the device must end empty.
func TestDeviceDirectDiagonalsFreed(t *testing.T) {
	a := gen.Flan3D(6, 6, 6, 1)
	th := gpu.Thresholds{Potrf: 1, Trsm: 1, Syrk: 1, Gemm: 1}
	f, err := Factorize(a, Options{Ranks: 4, RanksPerNode: 4, GPUsPerNode: 1, Thresholds: &th})
	if err != nil {
		t.Fatal(err)
	}
	devices := 0
	for _, s := range f.Metrics.Snapshot().Series {
		if s.Name != "sympack_gpu_mem_used_elements" {
			continue
		}
		devices++
		if s.Value != 0 {
			t.Errorf("device %v: %g elements still in use after the factorization", s.Labels, s.Value)
		}
	}
	if devices == 0 {
		t.Fatal("no device memory gauge exported")
	}
	if r := solveCheck(t, a, f, 4); r > 1e-10 {
		t.Fatalf("residual %g", r)
	}
}

func TestDeviceOOMFallbackCPU(t *testing.T) {
	a := gen.Flan3D(2, 2, 3, 1)
	th := gpu.Thresholds{Potrf: 1, Trsm: 1, Syrk: 1, Gemm: 1} // offload everything
	f, err := Factorize(a, Options{
		Ranks: 2, RanksPerNode: 2, GPUsPerNode: 1,
		DeviceCapacity: 8, // essentially nothing fits
		Thresholds:     &th,
		Fallback:       gpu.FallbackCPU,
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.Metrics.Value("sympack_gpu_oom_fallbacks_total") == 0 {
		t.Fatal("expected OOM fallbacks")
	}
	if e := reconstructError(t, f, a); e > 1e-8 {
		t.Fatalf("reconstruction error %g after fallbacks", e)
	}
}

func TestDeviceOOMFallbackError(t *testing.T) {
	a := gen.Flan3D(2, 2, 3, 1)
	th := gpu.Thresholds{Potrf: 1, Trsm: 1, Syrk: 1, Gemm: 1}
	_, err := Factorize(a, Options{
		Ranks: 2, RanksPerNode: 2, GPUsPerNode: 1,
		DeviceCapacity: 8,
		Thresholds:     &th,
		Fallback:       gpu.FallbackError,
	})
	if err == nil {
		t.Fatal("expected factorization to abort on OOM with fallback=error")
	}
}

func TestNotPositiveDefinite(t *testing.T) {
	// An indefinite matrix must abort cleanly on every rank count.
	coo := matrix.NewCOO(4)
	coo.Add(0, 0, 1)
	coo.Add(1, 1, 1)
	coo.Add(2, 2, 1)
	coo.Add(3, 3, 1)
	coo.Add(1, 0, 5) // breaks positive definiteness
	a, _ := coo.ToSym()
	for _, p := range []int{1, 3} {
		_, err := Factorize(a, Options{Ranks: p})
		if err == nil {
			t.Fatalf("p=%d: expected failure", p)
		}
		if !errors.Is(err, ErrNotPositiveDefinite) {
			t.Fatalf("p=%d: got %v", p, err)
		}
	}
}

func TestFactorizeAnalyzedReuse(t *testing.T) {
	// PEXSI-style repeated factorization: one analysis, several shifted
	// factorizations.
	a := gen.Laplace2D(10, 10)
	opt := Options{Ranks: 2}.withDefaults()
	st, _, err := symbolic.Analyze(a, opt.Ordering, *opt.Symbolic)
	if err != nil {
		t.Fatal(err)
	}
	for _, sigma := range []float64{0, 0.5, 2.0} {
		sh, err := a.ShiftDiag(sigma)
		if err != nil {
			t.Fatal(err)
		}
		psh, err := sh.Permute(st.Perm)
		if err != nil {
			t.Fatal(err)
		}
		f, err := FactorizeAnalyzed(st, psh, opt)
		if err != nil {
			t.Fatalf("sigma=%g: %v", sigma, err)
		}
		if r := solveCheck(t, sh, f, 7); r > 1e-10 {
			t.Fatalf("sigma=%g: residual %g", sigma, r)
		}
	}
}

func TestSolveMulti(t *testing.T) {
	a := gen.Laplace2D(8, 8)
	f, err := Factorize(a, Options{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	bs := make([][]float64, 3)
	for i := range bs {
		bs[i] = make([]float64, a.N)
		for j := range bs[i] {
			bs[i][j] = rng.NormFloat64()
		}
	}
	xs, err := f.SolveMulti(bs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if r := ResidualNorm(a, xs[i], bs[i]); r > 1e-10 {
			t.Fatalf("rhs %d residual %g", i, r)
		}
	}
	if _, err := f.SolveMulti([][]float64{make([]float64, 3)}); err == nil {
		t.Fatal("expected length error")
	}
}

func TestStatsPopulated(t *testing.T) {
	a := gen.Laplace3D(4, 4, 4)
	f, err := Factorize(a, Options{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	s := &f.Stats
	if s.Supernodes <= 0 || s.Blocks < s.Supernodes || s.NnzL <= 0 || s.FactorFlop <= 0 {
		t.Fatalf("stats not populated: %+v", s)
	}
	if s.ModelSeconds <= 0 {
		t.Fatal("model time not accumulated")
	}
	if len(s.PerRank) != 4 {
		t.Fatal("per-rank stats missing")
	}
	var potrf int64
	for _, r := range s.PerRank {
		potrf += r.CPU[0] + r.GPU[0]
	}
	if potrf != int64(s.Supernodes) {
		t.Fatalf("POTRF count %d != supernodes %d", potrf, s.Supernodes)
	}
}

// TestOrderingsAllWork: every kind reaches the analysis as given — the
// factor's permutation is the one symbolic.Analyze produces for it — and
// the zero value is nested dissection. On Laplace2D 9×9 the natural order
// fills to nnz(L) 843 and nested dissection to 652.
func TestOrderingsAllWork(t *testing.T) {
	a := gen.Laplace2D(9, 9)
	wantNnz := map[ordering.Kind]int64{ordering.Natural: 843, ordering.NestedDissection: 652}
	for _, ord := range []ordering.Kind{ordering.Natural, ordering.RCM, ordering.MinDegree, ordering.NestedDissection} {
		f, err := Factorize(a, Options{Ranks: 2, Ordering: ord})
		if err != nil {
			t.Fatalf("%v: %v", ord, err)
		}
		if r := solveCheck(t, a, f, 11); r > 1e-10 {
			t.Fatalf("%v: residual %g", ord, r)
		}
		want, _, err := symbolic.Analyze(a, ord, symbolic.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(f.St.Perm, want.Perm) {
			t.Fatalf("%v: factor permutation is not the %v analysis'", ord, ord)
		}
		if n, ok := wantNnz[ord]; ok && f.St.NnzL != n {
			t.Fatalf("%v: nnz(L) = %d, want %d", ord, f.St.NnzL, n)
		}
	}
	var zero Options
	if zero.Ordering != ordering.NestedDissection {
		t.Fatalf("zero Options order with %v, want nested dissection", zero.Ordering)
	}
}

// Property: random SPD matrices factor and solve correctly at random rank
// counts with and without GPU.
func TestFactorizeProperty(t *testing.T) {
	f := func(seed int64, nRaw, dRaw, pRaw uint8, useGPU bool) bool {
		n := int(nRaw%30) + 1
		p := int(pRaw%5) + 1
		a := gen.RandomSPD(n, float64(dRaw%10)/15, seed)
		opt := Options{Ranks: p}
		if useGPU {
			opt.GPUsPerNode = 1
			th := gpu.Thresholds{Potrf: 16, Trsm: 64, Syrk: 32, Gemm: 32}
			opt.Thresholds = &th
		}
		fac, err := Factorize(a, opt)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed + 1))
		xT := make([]float64, n)
		for i := range xT {
			xT[i] = rng.NormFloat64()
		}
		b := a.MulVec(xT)
		x, err := fac.Solve(b)
		if err != nil {
			return false
		}
		return ResidualNorm(a, x, b) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestLAccessor(t *testing.T) {
	a := gen.Laplace2D(6, 6)
	f, err := Factorize(a, Options{Ranks: 1, Ordering: ordering.Natural})
	if err != nil {
		t.Fatal(err)
	}
	// Upper triangle reads as zero.
	if f.L(0, 5) != 0 {
		t.Fatal("upper triangle should read 0")
	}
	// Diagonal entries are positive.
	for j := int32(0); j < int32(a.N); j++ {
		if f.L(j, j) <= 0 {
			t.Fatalf("diagonal %d not positive", j)
		}
	}
}

// Edge layouts: more ranks than blocks, tiny matrices, odd node shapes —
// idle ranks must terminate cleanly and results stay correct.
func TestOversubscribedRanks(t *testing.T) {
	for _, tc := range []struct {
		name  string
		a     *matrix.SparseSym
		ranks int
		rpn   int
		gpus  int
	}{
		{"1x16", gen.Laplace2D(1, 1), 16, 4, 2},
		{"4x12", gen.Laplace2D(2, 2), 12, 5, 1},
		{"diag-many", gen.RandomSPD(3, 0, 1), 9, 2, 0},
		{"prime-ranks", gen.Laplace2D(6, 6), 13, 3, 2},
	} {
		f, err := Factorize(tc.a, Options{
			Ranks: tc.ranks, RanksPerNode: tc.rpn, GPUsPerNode: tc.gpus,
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if r := solveCheck(t, tc.a, f, 13); r > 1e-10 {
			t.Fatalf("%s: residual %g", tc.name, r)
		}
		x, err := f.SolveDistributed(make([]float64, tc.a.N))
		if err != nil {
			t.Fatalf("%s: distributed solve: %v", tc.name, err)
		}
		for _, v := range x {
			if v != 0 {
				t.Fatalf("%s: zero rhs must give zero solution", tc.name)
			}
		}
	}
}

// The refinement helper must converge on an ill-conditioned system where a
// single direct solve leaves a measurable residual.
func TestRefinementImprovesIllConditioned(t *testing.T) {
	// A Laplacian with a tiny diagonal shift has condition ~1/h² but is
	// still well within double precision; scale values to stress rounding.
	a := gen.Laplace2D(30, 30)
	sc := a.Scale(1e8)
	f, err := Factorize(sc, Options{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	b := make([]float64, sc.N)
	for i := range b {
		b[i] = rng.NormFloat64() * 1e8
	}
	_, rel, _, err := f.SolveRefined(sc, b, 1e-15, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rel > 1e-13 {
		t.Fatalf("refined residual %g", rel)
	}
}
