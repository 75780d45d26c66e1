package upcxx

func Rput(src []float64, dst int) {}
