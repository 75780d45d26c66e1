package server

import (
	"math"
	"math/rand"
	"net/http"
	"testing"

	"sympack/internal/gen"
	"sympack/internal/matrix"
)

func cgRHS(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return b
}

func TestSolveCGEndToEnd(t *testing.T) {
	s := startServer(t, Config{})
	a := gen.Laplace2D(12, 12)
	b := cgRHS(a.N, 1)

	var pcg SolveCGResponse
	code, _ := post(t, s.Addr(), "/v1/solvecg", SolveCGRequest{
		Matrix: wire(a), B: b, Solver: "pcg", ICLevel: 1, Rtol: 1e-9,
	}, &pcg)
	if code != http.StatusOK || !pcg.Converged {
		t.Fatalf("pcg: code=%d converged=%v", code, pcg.Converged)
	}
	if pcg.PrecondCached {
		t.Fatal("first pcg request cannot hit the preconditioner cache")
	}
	// Verify against the matrix directly.
	r := a.MulVec(pcg.X)
	var rr, bb float64
	for i := range b {
		d := b[i] - r[i]
		rr += d * d
		bb += b[i] * b[i]
	}
	if rr/bb > 1e-14 {
		t.Fatalf("pcg solution residual too large: %g", rr/bb)
	}

	var cg SolveCGResponse
	code, _ = post(t, s.Addr(), "/v1/solvecg", SolveCGRequest{
		Matrix: wire(a), B: b, Solver: "cg", Rtol: 1e-9,
	}, &cg)
	if code != http.StatusOK || !cg.Converged {
		t.Fatalf("cg: code=%d converged=%v", code, cg.Converged)
	}
	if cg.Precond != "" {
		t.Fatalf("cg response reports a preconditioner id %q", cg.Precond)
	}
	if pcg.MatVecs >= cg.MatVecs {
		t.Fatalf("pcg took %d matvecs, cg %d; IC(1) must accelerate", pcg.MatVecs, cg.MatVecs)
	}

	// Same matrix + level again: the preconditioner must come from cache.
	var again SolveCGResponse
	code, _ = post(t, s.Addr(), "/v1/solvecg", SolveCGRequest{
		Matrix: wire(a), B: b, Solver: "pcg", ICLevel: 1, Rtol: 1e-9,
	}, &again)
	if code != http.StatusOK || !again.PrecondCached {
		t.Fatalf("repeat pcg: code=%d cached=%v", code, again.PrecondCached)
	}
	if again.Precond != pcg.Precond {
		t.Fatalf("preconditioner id changed: %q vs %q", again.Precond, pcg.Precond)
	}
}

func TestSolveCGBadRequests(t *testing.T) {
	s := startServer(t, Config{})
	a := gen.Laplace2D(4, 4)
	b := cgRHS(a.N, 2)

	code, _ := post(t, s.Addr(), "/v1/solvecg", SolveCGRequest{
		Matrix: wire(a), B: b[:3],
	}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("short rhs: code=%d, want 400", code)
	}
	code, _ = post(t, s.Addr(), "/v1/solvecg", SolveCGRequest{
		Matrix: wire(a), B: b, Solver: "gmres",
	}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("unknown solver: code=%d, want 400", code)
	}
	code, _ = post(t, s.Addr(), "/v1/solvecg", SolveCGRequest{
		Matrix: wire(a), B: b, DropTol: -0.5,
	}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("negative drop_tol: code=%d, want 400", code)
	}
}

func TestSolveCGIndefiniteIs422(t *testing.T) {
	s := startServer(t, Config{})
	// An indefinite matrix: CG curvature breakdown must map to 422.
	c := matrix.NewCOO(6)
	for i := 0; i < 6; i++ {
		d := 1.0
		if i == 3 {
			d = -1
		}
		c.Add(i, i, d)
	}
	a, err := c.ToSym()
	if err != nil {
		t.Fatal(err)
	}
	b := cgRHS(a.N, 3)
	code, _ := post(t, s.Addr(), "/v1/solvecg", SolveCGRequest{
		Matrix: wire(a), B: b, Solver: "cg",
	}, nil)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("indefinite cg: code=%d, want 422", code)
	}
}

func TestSolveCGNoConvergenceIs422(t *testing.T) {
	s := startServer(t, Config{})
	a := gen.Laplace2D(10, 10)
	b := cgRHS(a.N, 4)
	code, _ := post(t, s.Addr(), "/v1/solvecg", SolveCGRequest{
		Matrix: wire(a), B: b, Solver: "cg", Rtol: 1e-12, MaxIter: 2,
	}, nil)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("budget exhaustion: code=%d, want 422", code)
	}
}

// TestSolveCGPrecondKeyedOnOptions pins that the preconditioner cache
// serves the factor that was asked for: a drop tolerance of -0 is served
// the drop_tol 0 factor, a request with a drop tolerance after one
// without, of the same matrix and level, builds its own, and a
// negative level — which the analysis would clamp to 0 and so cache that
// factor a second time — is a 400 whatever the solver.
func TestSolveCGPrecondKeyedOnOptions(t *testing.T) {
	s := startServer(t, Config{})
	a := gen.Laplace2D(10, 10)
	b := cgRHS(a.N, 6)

	var exact SolveCGResponse
	code, _ := post(t, s.Addr(), "/v1/solvecg", SolveCGRequest{
		Matrix: wire(a), B: b, ICLevel: 1,
	}, &exact)
	if code != http.StatusOK || !exact.Converged {
		t.Fatalf("drop_tol 0 pcg: code=%d converged=%v", code, exact.Converged)
	}
	var negZero SolveCGResponse
	code, _ = post(t, s.Addr(), "/v1/solvecg", SolveCGRequest{
		Matrix: wire(a), B: b, ICLevel: 1, DropTol: math.Copysign(0, -1),
	}, &negZero)
	if code != http.StatusOK || !negZero.PrecondCached || negZero.Precond != exact.Precond {
		t.Fatalf("drop_tol -0: code=%d, served %q (cached=%v), the drop_tol 0 factor is %q",
			code, negZero.Precond, negZero.PrecondCached, exact.Precond)
	}
	var dropped SolveCGResponse
	code, _ = post(t, s.Addr(), "/v1/solvecg", SolveCGRequest{
		Matrix: wire(a), B: b, ICLevel: 1, DropTol: 0.5,
	}, &dropped)
	if code != http.StatusOK || !dropped.Converged {
		t.Fatalf("drop_tol 0.5 pcg: code=%d converged=%v", code, dropped.Converged)
	}
	if dropped.PrecondCached || dropped.Precond == exact.Precond {
		t.Fatalf("drop_tol 0.5 request served %q (cached=%v), the drop_tol 0 factor is %q",
			dropped.Precond, dropped.PrecondCached, exact.Precond)
	}
	for _, solver := range []string{"pcg", "cg"} {
		code, _ = post(t, s.Addr(), "/v1/solvecg", SolveCGRequest{
			Matrix: wire(a), B: b, Solver: solver, ICLevel: -1,
		}, nil)
		if code != http.StatusBadRequest {
			t.Fatalf("%s with ic_level -1: code=%d, want 400", solver, code)
		}
	}
}
