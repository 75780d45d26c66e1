package baseline

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"sympack/internal/core"
	"sympack/internal/gen"
	"sympack/internal/matrix"
	"sympack/internal/ordering"
	"sympack/internal/symbolic"
)

func problems() map[string]*matrix.SparseSym {
	return map[string]*matrix.SparseSym{
		"laplace2d": gen.Laplace2D(9, 8),
		"laplace3d": gen.Laplace3D(4, 3, 3),
		"flan":      gen.Flan3D(2, 2, 2, 1),
		"thermal":   gen.Thermal2D(11, 11, 2, 3),
		"random":    gen.RandomSPD(40, 0.12, 4),
		"dense":     gen.RandomSPD(15, 1.0, 5),
		"tiny":      gen.Laplace2D(1, 1),
	}
}

func TestBaselineSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for name, a := range problems() {
		f, err := Factorize(a, ordering.NestedDissection)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		xT := make([]float64, a.N)
		for i := range xT {
			xT[i] = rng.NormFloat64()
		}
		b := a.MulVec(xT)
		x, err := f.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		if r := core.ResidualNorm(a, x, b); r > 1e-10 {
			t.Fatalf("%s: residual %g", name, r)
		}
	}
}

// Cross-validation: the right-looking baseline and the fan-out solver are
// independent implementations; with identical orderings their factors must
// agree entry for entry. Every kind reaches the analysis as given.
func TestBaselineMatchesCore(t *testing.T) {
	kinds := []ordering.Kind{ordering.NestedDissection, ordering.Natural, ordering.RCM, ordering.MinDegree}
	for name, a := range problems() {
		for _, ord := range kinds {
			bf, err := Factorize(a, ord)
			if err != nil {
				t.Fatalf("%s %v: %v", name, ord, err)
			}
			want, _, err := symbolic.Analyze(a, ord, symbolic.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(bf.St.Perm, want.Perm) {
				t.Fatalf("%s %v: baseline permutation is not the %v analysis'", name, ord, ord)
			}
			cf, err := core.Factorize(a, core.Options{Ranks: 3, Ordering: ord})
			if err != nil {
				t.Fatalf("%s %v: %v", name, ord, err)
			}
			n := int32(a.N)
			for j := int32(0); j < n; j++ {
				for i := j; i < n; i++ {
					if d := math.Abs(bf.L(i, j) - cf.L(i, j)); d > 1e-9 {
						t.Fatalf("%s %v: L(%d,%d) differs by %g (baseline %g vs core %g)",
							name, ord, i, j, d, bf.L(i, j), cf.L(i, j))
					}
				}
			}
		}
	}
}

func TestBaselineNotPositiveDefinite(t *testing.T) {
	coo := matrix.NewCOO(3)
	coo.Add(0, 0, 1)
	coo.Add(1, 1, 1)
	coo.Add(2, 2, 1)
	coo.Add(1, 0, 4)
	a, _ := coo.ToSym()
	if _, err := Factorize(a, ordering.NestedDissection); err == nil {
		t.Fatal("expected failure on indefinite matrix")
	}
}

func TestBaselineRHSLengthError(t *testing.T) {
	a := gen.Laplace2D(4, 4)
	f, err := Factorize(a, ordering.NestedDissection)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Solve(make([]float64, 3)); err == nil {
		t.Fatal("expected length error")
	}
}

// Property: baseline solves random SPD systems across orderings.
func TestBaselineProperty(t *testing.T) {
	f := func(seed int64, nRaw, dRaw uint8, ordPick uint8) bool {
		n := int(nRaw%25) + 1
		a := gen.RandomSPD(n, float64(dRaw%10)/15, seed)
		ords := []ordering.Kind{ordering.Natural, ordering.MinDegree, ordering.NestedDissection}
		fac, err := Factorize(a, ords[int(ordPick)%len(ords)])
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed + 2))
		xT := make([]float64, n)
		for i := range xT {
			xT[i] = rng.NormFloat64()
		}
		b := a.MulVec(xT)
		x, err := fac.Solve(b)
		if err != nil {
			return false
		}
		return core.ResidualNorm(a, x, b) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
