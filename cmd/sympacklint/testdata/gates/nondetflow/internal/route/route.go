package route

func Weights(m map[int]float64) []float64 {
	var out []float64
	for _, v := range m {
		out = append(out, v)
	}
	return out
}
