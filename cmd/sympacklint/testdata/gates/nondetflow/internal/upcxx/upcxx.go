package upcxx

type Rank struct{}

func (r *Rank) NewArrayFrom(data []float64) []float64 { return data }
