package precond

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"sympack/internal/core"
	"sympack/internal/gen"
	"sympack/internal/krylov"
	"sympack/internal/matrix"
	"sympack/internal/ordering"
	"sympack/internal/symbolic"
)

func TestParseKind(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Kind
		err  bool
	}{
		{"", None, false},
		{"none", None, false},
		{"IC", IC, false},
		{"ichol", IC, false},
		{"ilu", None, true},
	} {
		got, err := ParseKind(tc.in)
		if (err != nil) != tc.err || got != tc.want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v, err=%v", tc.in, got, err, tc.want, tc.err)
		}
	}
}

func TestNewICFactorsSPDGrid(t *testing.T) {
	mats := map[string]*matrix.SparseSym{
		"laplace2d": gen.Laplace2D(10, 10),
		"laplace3d": gen.Laplace3D(5, 5, 4),
		"thermal2d": gen.Thermal2D(9, 9, 2, 1),
		"randspd":   gen.RandomSPD(80, 0.05, 2),
	}
	for name, a := range mats {
		for _, level := range []int{0, 1, 2} {
			ic, err := NewIC(a, Options{Level: level})
			if err != nil {
				t.Fatalf("%s level %d: %v", name, level, err)
			}
			if !ic.F.St.Incomplete {
				t.Fatalf("%s level %d: factor structure not marked Incomplete", name, level)
			}
			if ic.Bytes() <= 0 {
				t.Fatalf("%s level %d: Bytes() = %d", name, level, ic.Bytes())
			}
		}
	}
}

// TestICAcceleratesCG is the subsystem's reason to exist: PCG with IC(1)
// must converge in strictly fewer matvecs than unpreconditioned CG.
func TestICAcceleratesCG(t *testing.T) {
	a := gen.Laplace2D(20, 20)
	b := make([]float64, a.N)
	rng := rand.New(rand.NewSource(4))
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	plain, err := krylov.Solve(a, b, krylov.Options{Rtol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	ic, err := NewIC(a, Options{Level: 1})
	if err != nil {
		t.Fatal(err)
	}
	pcg, err := krylov.Solve(a, b, krylov.Options{Rtol: 1e-8, Precond: ic})
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Converged || !pcg.Converged {
		t.Fatalf("convergence: cg=%v pcg=%v", plain.Converged, pcg.Converged)
	}
	if pcg.MatVecs >= plain.MatVecs {
		t.Fatalf("PCG+IC(1) took %d matvecs, CG took %d; preconditioning must help", pcg.MatVecs, plain.MatVecs)
	}
	t.Logf("matvecs: cg=%d pcg+ic(1)=%d", plain.MatVecs, pcg.MatVecs)
}

// TestICApplyMatchesDirectSolve: at a level high enough to admit all fill the
// incomplete factor is the complete factor, so Apply is a direct solve.
func TestICApplyMatchesDirectSolve(t *testing.T) {
	a := gen.Laplace2D(8, 8)
	ic, err := NewIC(a, Options{Level: a.N})
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, a.N)
	rng := rand.New(rand.NewSource(6))
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	z := make([]float64, a.N)
	if err := ic.Apply(z, b); err != nil {
		t.Fatal(err)
	}
	r := make([]float64, a.N)
	a.MulVecTo(r, z)
	for i := range r {
		r[i] -= b[i]
	}
	if rel := krylov.Norm2(r) / krylov.Norm2(b); rel > 1e-10 {
		t.Fatalf("full-level IC apply residual %g; should be a direct solve", rel)
	}
}

// indefiniteTestMatrix has one negative diagonal pivot: the unshifted
// factorization must break down and the shift retry loop must rescue it.
func indefiniteTestMatrix(t *testing.T) *matrix.SparseSym {
	t.Helper()
	n := 12
	c := matrix.NewCOO(n)
	for i := 0; i < n; i++ {
		d := 2.0
		if i == n/2 {
			d = -0.5
		}
		c.Add(i, i, d)
		if i+1 < n {
			c.Add(i+1, i, -0.4)
		}
	}
	a, err := c.ToSym()
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewICShiftRetry(t *testing.T) {
	a := indefiniteTestMatrix(t)
	ic, err := NewIC(a, Options{Level: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ic.Attempts < 2 || ic.Shift <= 0 {
		t.Fatalf("expected shifted retry, got attempts=%d shift=%g", ic.Attempts, ic.Shift)
	}
}

// TestNewICBreakdownExhaustsShifts: a negated Laplacian (diagonal −4, so
// the shifts are scaled by 1 and end at ≈ 4.1) stays indefinite at every
// shift of the sequence, and NewIC must give up with ErrBreakdown.
func TestNewICBreakdownExhaustsShifts(t *testing.T) {
	a := gen.Laplace2D(6, 6)
	for i := range a.Val {
		a.Val[i] = -a.Val[i]
	}
	_, err := NewIC(a, Options{Level: 1})
	if !errors.Is(err, ErrBreakdown) {
		t.Fatalf("want ErrBreakdown, got %v", err)
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("after %d attempts", maxShiftAttempts)) {
		t.Fatalf("want all %d attempts spent: %v", maxShiftAttempts, err)
	}
}

// TestNewICOrdersNaturally: IC(k) analyses in the natural ordering whatever
// Core.Ordering says — the zero value (nested dissection for a direct
// factorization) included.
func TestNewICOrdersNaturally(t *testing.T) {
	a := gen.Laplace2D(9, 9)
	want, _, err := symbolic.AnalyzeIC(a, ordering.Natural, symbolic.DefaultOptions(), symbolic.ICOptions{Level: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, ord := range []ordering.Kind{0, ordering.NestedDissection, ordering.MinDegree} {
		ic, err := NewIC(a, Options{Level: 1, Core: core.Options{Ordering: ord}})
		if err != nil {
			t.Fatalf("Core.Ordering %v: %v", ord, err)
		}
		if !slices.Equal(ic.F.St.Perm, want.Perm) {
			t.Fatalf("Core.Ordering %v: permutation is not the natural analysis'", ord)
		}
	}
}

// TestICDeterministicAcrossWorkers: the preconditioner build runs through the
// engine, so its values must be bit-identical across worker counts, and the
// PCG trajectory through it likewise.
func TestICDeterministicAcrossWorkers(t *testing.T) {
	a := gen.Thermal2D(12, 12, 3, 5)
	b := make([]float64, a.N)
	rng := rand.New(rand.NewSource(8))
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	var ref []float64
	for _, workers := range []int{1, 2, 4} {
		ic, err := NewIC(a, Options{Level: 1, Core: core.Options{Workers: workers}})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		res, err := krylov.Solve(a, b, krylov.Options{Rtol: 1e-9, Precond: ic, RecordTrajectory: true})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ref == nil {
			ref = res.Trajectory
			continue
		}
		if len(res.Trajectory) != len(ref) {
			t.Fatalf("workers=%d: %d iterations vs %d at workers=1", workers, len(res.Trajectory), len(ref))
		}
		for i := range ref {
			if res.Trajectory[i] != ref[i] {
				t.Fatalf("workers=%d iteration %d: trajectory bits differ", workers, i)
			}
		}
	}
}
