package symbolic

// weighted folds a map in Go's randomized iteration order inside a
// deterministic package.
func weighted(counts map[int]int) int {
	n := 0
	for k, v := range counts {
		n += k * v
	}
	return n
}
