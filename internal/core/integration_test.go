package core

import (
	"fmt"
	"math/rand"
	"testing"

	"sympack/internal/gen"
	"sympack/internal/gpu"
	"sympack/internal/matrix"
)

// TestOptionMatrix sweeps the full option space — mapping × GPU × rank
// layout — on one problem per structural regime, asserting numeric
// correctness everywhere. This is the compatibility contract: any
// combination of knobs must factor and solve.
func TestOptionMatrix(t *testing.T) {
	mats := map[string]*matrix.SparseSym{
		"flan":    gen.Flan3D(2, 2, 3, 1),
		"thermal": gen.Thermal2D(12, 12, 2, 3),
	}
	th := gpu.Thresholds{Potrf: 64, Trsm: 128, Syrk: 96, Gemm: 96}
	cfgID := 0
	for name, a := range mats {
		for _, mapping := range []MappingKind{Map2DCyclic, Map1DCols} {
			for _, layout := range []struct{ ranks, rpn, gpus int }{
				{1, 0, 0}, {4, 2, 1}, {6, 3, 2},
			} {
				cfgID++
				label := fmt.Sprintf("%s/%v/r%d-n%d-g%d",
					name, mapping, layout.ranks, layout.rpn, layout.gpus)
				opt := Options{
					Ranks: layout.ranks, RanksPerNode: layout.rpn,
					GPUsPerNode: layout.gpus, Mapping: mapping,
				}
				if layout.gpus > 0 {
					opt.Thresholds = &th
				}
				f, err := Factorize(a, opt)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				rng := rand.New(rand.NewSource(int64(cfgID)))
				b := make([]float64, a.N)
				for i := range b {
					b[i] = rng.NormFloat64()
				}
				x, err := f.SolveDistributed(b)
				if err != nil {
					t.Fatalf("%s: solve: %v", label, err)
				}
				if r := ResidualNorm(a, x, b); r > 1e-10 {
					t.Fatalf("%s: residual %g", label, r)
				}
			}
		}
	}
	if cfgID != 2*2*3 {
		t.Fatalf("covered %d configurations, want 12", cfgID)
	}
}
