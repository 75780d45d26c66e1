// Testdata for nondetflow's direct rule on map ranges: the package path is
// in the deterministic set, so map ranges here are flagged unless they
// follow a blessed idiom or carry an audited suppression.
package core

import "sort"

var sink int32

func send(b int32) { sink = b }

// Plain map iteration driving side effects: RPC emission order would
// follow Go's randomized map order.
func reRequest(wanted map[int32]bool) {
	for bid := range wanted { // want "map iteration order is randomized"
		send(bid)
	}
}

// Floating-point accumulation in map order: addition is not associative,
// so the sum's bits depend on the schedule.
func accumulate(contrib map[string]float64) float64 {
	sum := 0.0
	for _, v := range contrib { // want "map iteration order is randomized"
		sum += v
	}
	return sum
}

// Key+value iteration is flagged even when only the value is used.
func drain(parked map[int32][]float64, apply func([]float64)) {
	for _, upd := range parked { // want "map iteration order is randomized"
		apply(upd)
	}
}

// Blessed idiom: collect the keys, sort, then iterate deterministically.
func sortedKeys(wanted map[int32]bool) []int32 {
	var keys []int32
	for k := range wanted {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// `for range m` binds no variables, so iteration order is unobservable.
func count(wanted map[int32]bool) int {
	n := 0
	for range wanted {
		n++
	}
	return n
}

// Audited escape hatch: writes land in disjoint slots, so order cannot
// matter; the suppression records the reasoning.
func scatter(blocks map[int32]float64, out []float64) {
	//lint:ignore nondetflow writes to disjoint out[i] slots; order-insensitive
	for i, v := range blocks {
		out[i] = v
	}
}
