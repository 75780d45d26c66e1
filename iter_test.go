package sympack

import (
	"math/rand"
	"os"
	"testing"
)

// This file is the acceptance battery of the iterative-solve subsystem
// (DESIGN.md §14): PCG+IC(k) must beat CG in matvecs on the SPD grid,
// trajectories must be bit-identical across worker and rank counts (clean
// and under chaos). CI's iter-matrix job shards it by exporting
// ITER_SOLVER (cg|pcg); locally the full grid runs.

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

// TestIterTrajectoryBitIdentical drives the sharded solver grid across
// workers {1,2,4} × ranks {1,4}: every configuration must produce the same
// residual trajectory bits. Worker count, rank count and
// precondition-build scheduling may change wall time, never arithmetic.
func TestIterTrajectoryBitIdentical(t *testing.T) {
	a := Thermal2D(12, 12, 2, 31)
	b := iterRHS(a.N, 32)
	for _, solver := range iterSolvers(t) {
		// The fp64 suffix keeps the subtest names stable.
		t.Run(solver+"-fp64", func(t *testing.T) {
			cg := CGOptions{Rtol: 1e-9, RecordTrajectory: true}
			if solver == "pcg" {
				cg.Precond = PrecondIC
				cg.ICLevel = 1
			}
			var ref []float64
			for _, workers := range []int{1, 2, 4} {
				for _, ranks := range []int{1, 4} {
					res, err := SolveCG(a, b, Options{Ranks: ranks, Workers: workers}, cg)
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
