package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"sympack/internal/gen"
	"sympack/internal/matrix"
)

// TestFactorBitsGolden pins the saved factor of four problems to fixed
// SHA-256 prefixes, so a kernel change that keeps "vector ≡ Go" but moves
// both away from the factor's established bits fails here. It holds
// whichever kernel path the build selects: the AVX-512 register tile, the
// AVX2 primitives, or the Go loops under -tags purego and on other
// architectures.
func TestFactorBitsGolden(t *testing.T) {
	cases := []struct {
		name  string
		a     *matrix.SparseSym
		want  string
		ranks []int
	}{
		{"Flan3D(10,10,10,1)", gen.Flan3D(10, 10, 10, 1), "19986cbc22991c46", []int{1, 3}},
		{"Thermal2D(64,64,4,2)", gen.Thermal2D(64, 64, 4, 2), "4bded29df1e8b0a4", []int{1, 3}},
		{"Laplace3D(12,12,12)", gen.Laplace3D(12, 12, 12), "152f7917ea8970c9", []int{1, 3}},
		// Its supernodes reach the 128-column cap, so full 16×8 register
		// tiles at k = 128 and Syrk's rectangle below the diagonal run.
		{"Flan3D(14,14,14,1)", gen.Flan3D(14, 14, 14, 1), "ba0ea2c2e7755f9a", []int{1}},
	}
	for _, c := range cases {
		for _, ranks := range c.ranks {
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

// TestSolveBitsGolden pins the solution bits of three problems, so a solve
// change that agrees with itself across nrhs but drifts from the
// established bits fails here. Three right-hand sides are drawn one after
// the other with b[i] = 0.5 + U[0,1) (seed 1); the hash is SHA-256 over
// x₀‖x₁‖x₂, each entry little-endian Float64bits. Solve per right-hand side
// and SolveMulti over all three must give the same prefix, at 1 and 3 ranks,
// on the vector path and under -tags purego.
func TestSolveBitsGolden(t *testing.T) {
	cases := []struct {
		name string
		a    *matrix.SparseSym
		want string
	}{
		{"Flan3D(10,10,10,1)", gen.Flan3D(10, 10, 10, 1), "ff858b0f160633b0"},
		{"Thermal2D(64,64,4,2)", gen.Thermal2D(64, 64, 4, 2), "f5dd7a8e68eb76ec"},
		{"Laplace3D(12,12,12)", gen.Laplace3D(12, 12, 12), "c4b2c68669e8fd2e"},
	}
	hash := func(xs [][]float64) string {
		h := sha256.New()
		var buf [8]byte
		for _, x := range xs {
			for _, v := range x {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
		}
		return hex.EncodeToString(h.Sum(nil)[:8])
	}
	for _, c := range cases {
		rng := rand.New(rand.NewSource(1))
		bs := make([][]float64, 3)
		for j := range bs {
			bs[j] = make([]float64, c.a.N)
			for i := range bs[j] {
				bs[j][i] = 0.5 + rng.Float64()
			}
		}
		for _, ranks := range []int{1, 3} {
			f, err := Factorize(c.a, Options{Ranks: ranks, Workers: 1})
			if err != nil {
				t.Fatalf("%s, %d ranks: %v", c.name, ranks, err)
			}
			single := make([][]float64, len(bs))
			for j, b := range bs {
				if single[j], err = f.Solve(b); err != nil {
					t.Fatalf("%s, %d ranks: Solve: %v", c.name, ranks, err)
				}
			}
			multi, err := f.SolveMulti(bs)
			if err != nil {
				t.Fatalf("%s, %d ranks: SolveMulti: %v", c.name, ranks, err)
			}
			for _, r := range []struct {
				call string
				xs   [][]float64
			}{{"Solve", single}, {"SolveMulti", multi}} {
				if got := hash(r.xs); got != c.want {
					t.Errorf("%s, %d ranks: %s solution SHA-256 starts %s, want %s", c.name, ranks, r.call, got, c.want)
				}
			}
		}
	}
}
