//go:build !amd64 || purego

package blas

// useVector and useTile have no vector kernels behind them here: every
// path is the Go loops. They stay variables so the tests run unchanged on
// every build.
var useVector, useTile = false, false

func axpyVec(t float64, x, y []float64) { axpyGo(t, x, y) }

func scalVec(d float64, x []float64) { scalGo(d, x) }

func tileVec(m, k int, alpha float64, neg bool, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	panic("blas: no register tile in this build")
}
