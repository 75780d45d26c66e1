package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sympack/internal/gen"
	"sympack/internal/symbolic"
)

// propCase is one randomized factorization problem: a random sparse SPD
// matrix plus randomized supernode partitioning, so the harness sweeps block
// shapes from scalar to wide panels and update fan-ins from none (diagonal
// matrices) to dense.
type propCase struct {
	n       int
	density float64
	seed    int64
	maxSn   int
	relax   float64
	tag     string
}

func propCases(count int, metaSeed int64) []propCase {
	rng := rand.New(rand.NewSource(metaSeed))
	densities := []float64{0.02, 0.05, 0.1, 0.3, 1.0}
	snSizes := []int{4, 8, 16, 32}
	relaxes := []float64{0, 0.25}
	// The last draw once picked an RTQ policy. It stays so the next case's
	// draws, and so every problem, are those the harness always generated;
	// its old name only tags the case so the case names stay stable.
	tags := []string{"fifo", "lifo", "critical-path"}
	out := make([]propCase, count)
	for i := range out {
		out[i] = propCase{
			n:       20 + rng.Intn(101), // 20..120
			density: densities[rng.Intn(len(densities))],
			seed:    rng.Int63(),
			maxSn:   snSizes[rng.Intn(len(snSizes))],
			relax:   relaxes[rng.Intn(len(relaxes))],
			tag:     tags[rng.Intn(len(tags))],
		}
	}
	return out
}

func (c propCase) options(workers, ranks int) Options {
	sym := symbolic.DefaultOptions()
	sym.MaxSupernodeSize = c.maxSn
	sym.RelaxRatio = c.relax
	return Options{Ranks: ranks, Workers: workers, Symbolic: &sym}
}

// requireSameFactor asserts two factors are bit-identical, block by block.
// Plain == would treat 0 and -0 as equal; the comparison is on the IEEE-754
// bits because the determinism guarantee is about reproducible bytes, not
// just numeric closeness.
func requireSameFactor(t *testing.T, ref, f *Factor, what string) {
	t.Helper()
	for bid := range ref.Data {
		a, b := ref.Data[bid], f.Data[bid]
		if len(a) != len(b) {
			t.Fatalf("%s: block %d: %d vs %d elements", what, bid, len(a), len(b))
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s: block %d elem %d: %v vs %v (bits %x vs %x)",
					what, bid, i, a[i], b[i], math.Float64bits(a[i]), math.Float64bits(b[i]))
			}
		}
	}
}

// TestPropertyWorkersRanksDeterminism is the randomized correctness harness
// for the multi-worker execution model: ~50 random sparse SPD matrices of
// varying size, density and supernode partitioning are factored at every
// workers ∈ {1,2,4} × ranks ∈ {1,4} combination. Each run must solve to a
// residual ≤ 1e-10, and every factor must be bit-identical to the
// sequential (workers=1, ranks=1) reference — the ordered-apply guarantee
// that execution interleaving never leaks into the numerics.
func TestPropertyWorkersRanksDeterminism(t *testing.T) {
	cases := propCases(50, 20260805)
	for ci, c := range cases {
		c := c
		name := fmt.Sprintf("case%02d_n%d_d%g_sn%d_%s", ci, c.n, c.density, c.maxSn, c.tag)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			a := gen.RandomSPD(c.n, c.density, c.seed)
			ref, err := Factorize(a, c.options(1, 1))
			if err != nil {
				t.Fatalf("reference factorization: %v", err)
			}
			if r := solveCheck(t, a, ref, c.seed); r > 1e-10 {
				t.Fatalf("reference residual %g > 1e-10", r)
			}
			for _, workers := range []int{1, 2, 4} {
				for _, ranks := range []int{1, 4} {
					if workers == 1 && ranks == 1 {
						continue // the reference itself
					}
					f, err := Factorize(a, c.options(workers, ranks))
					if err != nil {
						t.Fatalf("workers=%d ranks=%d: %v", workers, ranks, err)
					}
					if r := solveCheck(t, a, f, c.seed); r > 1e-10 {
						t.Fatalf("workers=%d ranks=%d: residual %g > 1e-10", workers, ranks, r)
					}
					requireSameFactor(t, ref, f, fmt.Sprintf("workers=%d ranks=%d", workers, ranks))
				}
			}
		})
	}
}
