package core

import (
	"math"

	"sympack/internal/matrix"
)

// CondEst1 estimates the 1-norm condition number κ₁(A) = ‖A‖₁·‖A⁻¹‖₁ of the
// factored matrix using Hager's algorithm (as refined by Higham, the LAPACK
// xLACON approach): ‖A⁻¹‖₁ is estimated from a few applications of A⁻¹ —
// i.e., solves against the factor — without ever forming the inverse.
// The estimate is a lower bound that is almost always within a small factor
// of the truth; it is the standard way to assess solvability after a
// factorization.
func (f *Factor) CondEst1(a *matrix.SparseSym) (float64, error) {
	normA := onesNorm(a)
	normInv, err := f.invNormEst1(a.N)
	if err != nil {
		return 0, err
	}
	return normA * normInv, nil
}

// onesNorm computes ‖A‖₁ = max column sum of absolute values for the
// symmetric operator.
func onesNorm(a *matrix.SparseSym) float64 {
	sums := make([]float64, a.N)
	for j := 0; j < a.N; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			i := int(a.RowInd[p])
			v := math.Abs(a.Val[p])
			sums[j] += v
			if i != j {
				sums[i] += v
			}
		}
	}
	var m float64
	for _, s := range sums {
		if s > m {
			m = s
		}
	}
	return m
}

// invNormEst1 runs Hager's iteration for ‖A⁻¹‖₁. A is symmetric, so the
// transpose solves of the general algorithm collapse onto Solve.
func (f *Factor) invNormEst1(n int) (float64, error) {
	x := make([]float64, n)
	for i := range x {
		x[i] = 1 / float64(n)
	}
	est := 0.0
	for iter := 0; iter < 5; iter++ {
		y, err := f.Solve(x) // y = A⁻¹x
		if err != nil {
			return 0, err
		}
		newEst := norm1Vec(y)
		// ξ = sign(y); z = A⁻ᵀξ = A⁻¹ξ by symmetry.
		xi := make([]float64, n)
		for i, v := range y {
			if v >= 0 {
				xi[i] = 1
			} else {
				xi[i] = -1
			}
		}
		z, err := f.Solve(xi)
		if err != nil {
			return 0, err
		}
		// Pick the most promising unit vector for the next sweep.
		jBest, zBest := 0, math.Abs(z[0])
		for i := 1; i < n; i++ {
			if av := math.Abs(z[i]); av > zBest {
				jBest, zBest = i, av
			}
		}
		if newEst <= est || zBest <= dot1(z, x) {
			if newEst > est {
				est = newEst
			}
			break
		}
		est = newEst
		for i := range x {
			x[i] = 0
		}
		x[jBest] = 1
	}
	// Higham's final safeguard: an alternating "staircase" probe catches
	// adversarial cases the iteration misses.
	v := make([]float64, n)
	for i := range v {
		s := 1.0
		if i%2 == 1 {
			s = -1
		}
		v[i] = s * (1 + float64(i)/float64(max(n-1, 1)))
	}
	w, err := f.Solve(v)
	if err != nil {
		return 0, err
	}
	if alt := 2 * norm1Vec(w) / (3 * float64(n)); alt > est {
		est = alt
	}
	return est, nil
}

func norm1Vec(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += math.Abs(x)
	}
	return s
}

func dot1(z, x []float64) float64 {
	var s float64
	for i := range z {
		s += float64(z[i] * x[i])
	}
	return math.Abs(s)
}
