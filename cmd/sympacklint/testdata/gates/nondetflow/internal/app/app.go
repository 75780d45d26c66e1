package app

import (
	"sympack/internal/route"
	"sympack/internal/upcxx"
)

func publish(m map[int]float64) {
	upcxx.AllReduce(0, route.Weights(m))
}
