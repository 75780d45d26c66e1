package core

import (
	"math"

	"sympack/internal/matrix"
	"sympack/internal/metrics"
)

// SolveRefined solves A·x = b and applies iterative refinement until the
// relative residual falls below tol or maxIter refinement steps have run.
// (The paper's PaStiX baseline ships refinement in its driver; symPACK
// leaves it to the application — this helper provides it for both.) It
// returns the solution, the final relative residual, and the number of
// refinement iterations performed.
func (f *Factor) SolveRefined(a *matrix.SparseSym, b []float64, tol float64, maxIter int) ([]float64, float64, int, error) {
	if tol <= 0 {
		tol = 1e-14
	}
	if maxIter < 0 {
		maxIter = 0
	}
	x, err := f.Solve(b)
	if err != nil {
		return nil, 0, 0, err
	}
	n := len(b)
	r := make([]float64, n)
	ax := make([]float64, n)
	res := func() float64 {
		a.MulVecTo(ax, x)
		var rr, bb float64
		for i := range b {
			r[i] = b[i] - ax[i]
			rr += float64(r[i] * r[i])
			bb += float64(b[i] * b[i])
		}
		if bb == 0 {
			return math.Sqrt(rr)
		}
		return math.Sqrt(rr / bb)
	}
	var sweeps *metrics.Counter
	if f.Metrics != nil {
		sweeps = f.Metrics.Counter("sympack_iter_refine_sweeps_total",
			"iterative-refinement sweeps performed by SolveRefined")
	}
	rel := res()
	iters := 0
	for ; iters < maxIter && rel > tol; iters++ {
		d, err := f.Solve(r)
		if err != nil {
			return nil, 0, iters, err
		}
		if sweeps != nil {
			sweeps.Inc()
		}
		for i := range x {
			x[i] += d[i]
		}
		prev := rel
		rel = res()
		if rel >= prev {
			// No further progress (already at working precision).
			break
		}
	}
	return x, rel, iters, nil
}
