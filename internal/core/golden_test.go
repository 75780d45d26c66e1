package core

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"sympack/internal/gen"
	"sympack/internal/matrix"
)

// TestFactorBitsGolden pins the saved factor of three problems to fixed
// SHA-256 prefixes, so a kernel change that keeps "vector ≡ Go" but moves
// both away from the factor's established bits fails here. It holds
// whichever kernel path the build selects: the AVX2 primitives, or the Go
// loops under -tags purego and on other architectures.
func TestFactorBitsGolden(t *testing.T) {
	cases := []struct {
		name string
		a    *matrix.SparseSym
		want string
	}{
		{"Flan3D(10,10,10,1)", gen.Flan3D(10, 10, 10, 1), "19986cbc22991c46"},
		{"Thermal2D(64,64,4,2)", gen.Thermal2D(64, 64, 4, 2), "4bded29df1e8b0a4"},
		{"Laplace3D(12,12,12)", gen.Laplace3D(12, 12, 12), "152f7917ea8970c9"},
	}
	for _, c := range cases {
		for _, ranks := range []int{1, 3} {
			f, err := Factorize(c.a, Options{Ranks: ranks, Workers: 1})
			if err != nil {
				t.Fatalf("%s, %d ranks: %v", c.name, ranks, err)
			}
			h := sha256.New()
			if err := f.Save(h); err != nil {
				t.Fatalf("%s, %d ranks: save: %v", c.name, ranks, err)
			}
			if got := hex.EncodeToString(h.Sum(nil)[:8]); got != c.want {
				t.Errorf("%s, %d ranks: factor SHA-256 starts %s, want %s", c.name, ranks, got, c.want)
			}
		}
	}
}
