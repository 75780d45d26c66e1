package blas

import "math"

// Dense is a small column-major dense matrix helper used by tests, the
// sequential reference solver, and the examples. It is deliberately simple:
// the production kernels operate on raw slices.
type Dense struct {
	Rows, Cols int
	Stride     int
	Data       []float64
}

// NewDense allocates a zeroed r×c column-major matrix.
func NewDense(r, c int) *Dense {
	return &Dense{Rows: r, Cols: c, Stride: r, Data: make([]float64, r*c)}
}

// At returns element (i,j).
func (d *Dense) At(i, j int) float64 { return d.Data[i+j*d.Stride] }

// Set assigns element (i,j).
func (d *Dense) Set(i, j int, v float64) { d.Data[i+j*d.Stride] = v }

// MulVec computes y = d*x.
func (d *Dense) MulVec(x []float64) []float64 {
	y := make([]float64, d.Rows)
	for j := 0; j < d.Cols; j++ {
		xj := x[j]
		if xj == 0 {
			continue
		}
		axpy(xj, d.Data[j*d.Stride:j*d.Stride+d.Rows], y)
	}
	return y
}

// CholSolve factors the SPD matrix d (lower triangle) and solves d*x = b,
// returning x. d is overwritten with its Cholesky factor. Used as the ground
// truth in tests and by the sequential reference solver for small systems.
func (d *Dense) CholSolve(b []float64) ([]float64, error) {
	if err := Potrf(Lower, d.Rows, d.Data, d.Stride); err != nil {
		return nil, err
	}
	x := make([]float64, len(b))
	copy(x, b)
	// Forward solve L y = b.
	Trsm(Left, Lower, NoTrans, d.Rows, 1, 1, d.Data, d.Stride, x, d.Rows)
	// Backward solve Lᵀ x = y.
	Trsm(Left, Lower, Transpose, d.Rows, 1, 1, d.Data, d.Stride, x, d.Rows)
	return x, nil
}

// Norm2 returns the Euclidean norm of a vector.
func Norm2(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += float64(v * v)
	}
	return math.Sqrt(s)
}

// ResidualNorm returns ‖b − A·x‖₂ / ‖b‖₂ for a dense A, a convenience for
// tests and examples. A zero b yields the absolute residual norm.
func ResidualNorm(a *Dense, x, b []float64) float64 {
	ax := a.MulVec(x)
	r := make([]float64, len(b))
	for i := range r {
		r[i] = b[i] - ax[i]
	}
	nb := Norm2(b)
	if nb == 0 {
		return Norm2(r)
	}
	return Norm2(r) / nb
}
