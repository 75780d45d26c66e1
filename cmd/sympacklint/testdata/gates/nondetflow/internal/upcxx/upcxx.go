package upcxx

func AllReduce(rank int, buf []float64) {}
