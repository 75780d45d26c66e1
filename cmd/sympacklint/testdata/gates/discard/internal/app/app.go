package app

import "sympack/internal/upcxx"

func fetch(src, dst []float64) {
	upcxx.Rget(src, dst)
}
