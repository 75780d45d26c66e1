package blas

import (
	"math"
	"testing"
)

func TestRound32Conversions(t *testing.T) {
	src := []float64{1.0 / 3.0, math.Pi, -2.5e-20, 1e20, 0, math.Copysign(0, -1), 1 - 1e-9}
	rounded := append([]float64(nil), src...)
	Round32(rounded)
	for i, v := range rounded {
		if math.Float64bits(v) != math.Float64bits(float64(float32(src[i]))) {
			t.Fatalf("Round32[%d]=%g is not round-to-nearest of %g", i, v, src[i])
		}
	}
	again := append([]float64(nil), rounded...)
	Round32(again)
	for i := range again {
		if math.Float64bits(again[i]) != math.Float64bits(rounded[i]) {
			t.Fatalf("Round32 not idempotent at %d: %g then %g", i, rounded[i], again[i])
		}
	}
	if rounded[6] != 1 {
		t.Fatalf("1-1e-9 rounds to %g in float32, want 1 (the gap the fp32 → fp64 retry depends on)", rounded[6])
	}
}
