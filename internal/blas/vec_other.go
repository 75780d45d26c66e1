//go:build !amd64 || purego

package blas

// useVector has no vector kernels behind it here: both paths are the Go
// loops. It stays a variable so the tests run unchanged on every build.
var useVector = false

func axpyVec(t float64, x, y []float64) { axpyGo(t, x, y) }

func scalVec(d float64, x []float64) { scalGo(d, x) }
