package sympack

import (
	"fmt"
	"math/rand"
	"os"
	"testing"

	"sympack/internal/symbolic"
)

// This file is the acceptance battery of the iterative-solve subsystem
// (DESIGN.md §14): PCG+IC(k) must beat CG in matvecs on the SPD grid,
// trajectories must be bit-identical across worker and rank counts (clean
// and under chaos), and fp32 factorization plus fp64 refinement must reach
// direct-solver accuracy. CI's iter-matrix job shards it by exporting
// ITER_SOLVER (cg|pcg) and ITER_PRECISION (fp64|fp32); locally the full
// grid runs.

// iterGrid is the SPD property grid the battery runs on.
func iterGrid() map[string]*Matrix {
	return map[string]*Matrix{
		"laplace2d": Laplace2D(16, 16),
		"thermal2d": Thermal2D(14, 14, 3, 11),
		"randspd":   RandomSPD(200, 0.04, 12),
	}
}

func iterRHS(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return b
}

// iterSolvers returns the solver shard: both unless ITER_SOLVER narrows it.
func iterSolvers(t *testing.T) []string {
	switch s := os.Getenv("ITER_SOLVER"); s {
	case "":
		return []string{"cg", "pcg"}
	case "cg", "pcg":
		return []string{s}
	default:
		t.Fatalf("ITER_SOLVER=%q (want cg or pcg)", s)
		return nil
	}
}

// iterPrecisions returns the precision shard: both unless ITER_PRECISION
// narrows it.
func iterPrecisions(t *testing.T) []Precision {
	switch s := os.Getenv("ITER_PRECISION"); s {
	case "":
		return []Precision{PrecFP64, PrecFP32}
	default:
		p, err := ParsePrecision(s)
		if err != nil {
			t.Fatalf("ITER_PRECISION=%q: %v", s, err)
		}
		return []Precision{p}
	}
}

// TestIterPCGBeatsCG is the subsystem's headline acceptance criterion:
// PCG with IC(1) converges to rtol 1e-8 in strictly fewer matvecs than
// unpreconditioned CG on every grid point.
func TestIterPCGBeatsCG(t *testing.T) {
	for name, a := range iterGrid() {
		b := iterRHS(a.N, 21)
		cg, err := SolveCG(a, b, Options{}, CGOptions{Rtol: 1e-8})
		if err != nil {
			t.Fatalf("%s cg: %v", name, err)
		}
		pcg, err := SolveCG(a, b, Options{}, CGOptions{
			Rtol: 1e-8, Precond: PrecondIC, ICLevel: 1,
		})
		if err != nil {
			t.Fatalf("%s pcg: %v", name, err)
		}
		if !cg.Converged || !pcg.Converged {
			t.Fatalf("%s: converged cg=%v pcg=%v", name, cg.Converged, pcg.Converged)
		}
		if pcg.MatVecs >= cg.MatVecs {
			t.Fatalf("%s: pcg+ic(1) %d matvecs, cg %d; preconditioning must win", name, pcg.MatVecs, cg.MatVecs)
		}
		if res := ResidualNorm(a, pcg.X, b); res > 1e-7 {
			t.Fatalf("%s: pcg true residual %g", name, res)
		}
	}
}

// TestIterTrajectoryBitIdentical drives the sharded (solver × precision)
// grid across workers {1,2,4} × ranks {1,4}: every configuration must
// produce the same residual trajectory bits. Worker count, rank count and
// precondition-build scheduling may change wall time, never arithmetic.
func TestIterTrajectoryBitIdentical(t *testing.T) {
	a := Thermal2D(12, 12, 2, 31)
	b := iterRHS(a.N, 32)
	for _, solver := range iterSolvers(t) {
		for _, prec := range iterPrecisions(t) {
			t.Run(fmt.Sprintf("%s-%v", solver, prec), func(t *testing.T) {
				cg := CGOptions{Rtol: 1e-9, RecordTrajectory: true}
				if solver == "pcg" {
					cg.Precond = PrecondIC
					cg.ICLevel = 1
				}
				var ref []float64
				for _, workers := range []int{1, 2, 4} {
					for _, ranks := range []int{1, 4} {
						res, err := SolveCG(a, b, Options{
							Ranks: ranks, Workers: workers, Precision: prec,
						}, cg)
						if err != nil {
							t.Fatalf("w%d r%d: %v", workers, ranks, err)
						}
						if ref == nil {
							ref = res.Trajectory
							continue
						}
						if len(res.Trajectory) != len(ref) {
							t.Fatalf("w%d r%d: %d iterations vs %d reference", workers, ranks, len(res.Trajectory), len(ref))
						}
						for i := range ref {
							if res.Trajectory[i] != ref[i] {
								t.Fatalf("w%d r%d iteration %d: residual bits differ", workers, ranks, i)
							}
						}
					}
				}
			})
		}
	}
}

// TestIterTrajectoryUnderChaos crosses the preconditioner build with the
// runtime fault plan: injected faults may cost retries during the IC
// factorization, but the resulting PCG trajectory must be bit-identical to
// the clean run's.
func TestIterTrajectoryUnderChaos(t *testing.T) {
	a := Laplace2D(12, 12)
	b := iterRHS(a.N, 41)
	cg := CGOptions{Rtol: 1e-9, Precond: PrecondIC, ICLevel: 1, RecordTrajectory: true}
	clean, err := SolveCG(a, b, Options{Ranks: 4}, cg)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 3; seed++ {
		plan := DefaultChaosPlan(seed)
		res, err := SolveCG(a, b, Options{Ranks: 4, Faults: &plan}, cg)
		if err != nil {
			t.Fatalf("chaos seed %d: %v", seed, err)
		}
		if len(res.Trajectory) != len(clean.Trajectory) {
			t.Fatalf("chaos seed %d: %d iterations vs %d clean", seed, len(res.Trajectory), len(clean.Trajectory))
		}
		for i := range clean.Trajectory {
			if res.Trajectory[i] != clean.Trajectory[i] {
				t.Fatalf("chaos seed %d iteration %d: trajectory bits differ from clean run", seed, i)
			}
		}
	}
}

// TestIterFP32FallsBackToFP64 reaches the fp32 → fp64 retry: the matrix is
// SPD in fp64 (Schur complement 2e-9), but with one column per supernode
// L21 = 1−1e-9 is stored as float32(…) = 1 and the second pivot becomes
// 1 − 1·1 = 0. The factorization must succeed on the retry, solve to fp64
// accuracy and count exactly one fallback.
func TestIterFP32FallsBackToFP64(t *testing.T) {
	bld := NewBuilder(2)
	bld.Add(0, 0, 1)
	bld.Add(1, 0, 1-1e-9)
	bld.Add(1, 1, 1)
	a, err := bld.ToSym()
	if err != nil {
		t.Fatal(err)
	}
	f, err := Factorize(a, Options{
		Ordering: OrderNatural, Symbolic: &symbolic.Options{MaxSupernodeSize: 1}, Precision: PrecFP32,
	})
	if err != nil {
		t.Fatalf("fp32 factorization did not fall back: %v", err)
	}
	b := []float64{1, -2}
	x, err := f.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if rel := ResidualNorm(a, x, b); rel > 1e-12 {
		t.Fatalf("residual %g after the fp64 retry, want fp64 accuracy", rel)
	}
	if got := f.Metrics.Value("sympack_iter_fp32_fallbacks_total"); got != 1 {
		t.Fatalf("sympack_iter_fp32_fallbacks_total = %v, want 1", got)
	}
}

// TestIterFP32RefinementAccuracy is the mixed-precision acceptance
// criterion at the facade: an fp32 factor polished by fp64 refinement
// reaches ≤ 1e-10 relative residual on every grid point.
func TestIterFP32RefinementAccuracy(t *testing.T) {
	for name, a := range iterGrid() {
		b := iterRHS(a.N, 51)
		f, err := Factorize(a, Options{Precision: PrecFP32})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		x, rel, iters, err := f.SolveRefined(a, b, 1e-12, 10)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rel > 1e-10 {
			t.Fatalf("%s: fp32+refinement residual %g > 1e-10 after %d sweeps", name, rel, iters)
		}
		if got := ResidualNorm(a, x, b); got > 1e-10 {
			t.Fatalf("%s: actual residual %g", name, got)
		}
	}
}
