package core

import (
	"math"
	"math/rand"
	"testing"

	"sympack/internal/gen"
	"sympack/internal/matrix"
)

// illConditioned returns a Laplacian whose rows are rescaled over many
// orders of magnitude: still SPD, but badly enough conditioned that a
// single fp64 solve leaves a residual refinement can visibly improve.
func illConditioned(t *testing.T, nx, ny int, decades float64) *matrix.SparseSym {
	t.Helper()
	a := gen.Laplace2D(nx, ny)
	n := a.N
	scale := make([]float64, n)
	for i := range scale {
		scale[i] = math.Pow(10, decades*float64(i)/float64(n-1))
	}
	// D·A·D symmetric rescaling on the stored lower triangle.
	for j := 0; j < n; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			a.Val[p] *= scale[j] * scale[a.RowInd[p]]
		}
	}
	return a
}

func refineRHS(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return b
}

func TestSolveRefinedIllConditioned(t *testing.T) {
	a := illConditioned(t, 10, 10, 8)
	b := refineRHS(a.N, 1)
	f, err := Factorize(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	xRaw, err := f.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	raw := ResidualNorm(a, xRaw, b)
	// tol below the conditioning floor: refinement must sweep at least once
	// and improve on the raw solve before the no-progress break fires.
	x, rel, iters, err := f.SolveRefined(a, b, 1e-14, 10)
	if err != nil {
		t.Fatal(err)
	}
	if rel > 1e-12 {
		t.Fatalf("refinement stalled at residual %g after %d sweeps", rel, iters)
	}
	if got := ResidualNorm(a, x, b); got > 1e-11 {
		t.Fatalf("reported residual %g but actual %g", rel, got)
	}
	if iters == 0 || raw <= rel {
		t.Fatalf("refinement did no observable work (raw %g, refined %g, %d sweeps)", raw, rel, iters)
	}
}

// TestSolveRefinedNoProgressStops: an unreachable tolerance must terminate
// via the no-progress break, not burn the whole sweep budget.
func TestSolveRefinedNoProgressStops(t *testing.T) {
	a := gen.Laplace2D(8, 8)
	b := refineRHS(a.N, 2)
	f, err := Factorize(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, rel, iters, err := f.SolveRefined(a, b, 1e-30, 50)
	if err != nil {
		t.Fatal(err)
	}
	if iters >= 50 {
		t.Fatalf("refinement ran all %d sweeps chasing an unreachable tolerance", iters)
	}
	if rel > 1e-12 {
		t.Fatalf("residual %g after %d sweeps; working precision expected", rel, iters)
	}
}

// TestSolveRefinedDeterministicAcrossWorkers: the refinement trajectory —
// every sweep's iterate — must be bit-identical across worker and rank
// counts, the factorization's determinism guarantee extended through the
// refined solve path. The matrices are conditioned badly enough, and the
// tolerance is tight enough, that every run refines at least once.
func TestSolveRefinedDeterministicAcrossWorkers(t *testing.T) {
	grid := []struct {
		name string
		a    *matrix.SparseSym
	}{
		{"ill11x13", illConditioned(t, 11, 13, 8)},
		{"ill14x14", illConditioned(t, 14, 14, 10)},
		{"ill9x12", illConditioned(t, 9, 12, 9)},
	}
	for _, g := range grid {
		b := refineRHS(g.a.N, 8)
		var refX []float64
		var refRel float64
		var refIters int
		for _, cfg := range []struct{ ranks, workers int }{
			{1, 1}, {1, 2}, {1, 4}, {4, 1}, {4, 4},
		} {
			f, err := Factorize(g.a, Options{Ranks: cfg.ranks, Workers: cfg.workers})
			if err != nil {
				t.Fatalf("%s r%dw%d: %v", g.name, cfg.ranks, cfg.workers, err)
			}
			x, rel, iters, err := f.SolveRefined(g.a, b, 1e-14, 10)
			if err != nil {
				t.Fatalf("%s r%dw%d: %v", g.name, cfg.ranks, cfg.workers, err)
			}
			if iters < 1 {
				t.Fatalf("%s r%dw%d: no refinement sweep (residual %g)", g.name, cfg.ranks, cfg.workers, rel)
			}
			if refX == nil {
				refX, refRel, refIters = x, rel, iters
				continue
			}
			if rel != refRel || iters != refIters {
				t.Fatalf("%s r%dw%d: trajectory diverged: rel %g vs %g, sweeps %d vs %d",
					g.name, cfg.ranks, cfg.workers, rel, refRel, iters, refIters)
			}
			for i := range refX {
				if x[i] != refX[i] {
					t.Fatalf("%s r%dw%d: solution bit %d differs across worker counts", g.name, cfg.ranks, cfg.workers, i)
				}
			}
		}
	}
}

// TestSolveRefinedSweepMetric: each refinement sweep lands on the factor's
// registry as sympack_iter_refine_sweeps_total.
func TestSolveRefinedSweepMetric(t *testing.T) {
	a := illConditioned(t, 10, 10, 8)
	b := refineRHS(a.N, 9)
	f, err := Factorize(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, _, iters, err := f.SolveRefined(a, b, 1e-14, 10)
	if err != nil {
		t.Fatal(err)
	}
	if iters < 1 {
		t.Fatal("no refinement sweep to count")
	}
	c := f.Metrics.Counter("sympack_iter_refine_sweeps_total",
		"iterative-refinement sweeps performed by SolveRefined")
	if int(c.Value()) != iters {
		t.Fatalf("counter %v, want %d sweeps", c.Value(), iters)
	}
}
