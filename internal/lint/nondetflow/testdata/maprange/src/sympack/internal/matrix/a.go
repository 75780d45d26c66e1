// Package matrix is outside the deterministic set, so map iteration here
// that reaches no sink is not flagged (I/O and assembly layers re-sort
// their outputs explicitly).
package matrix

func histogram(entries map[int]float64) float64 {
	total := 0.0
	for _, v := range entries {
		total += v
	}
	return total
}
