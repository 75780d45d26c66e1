package core

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"sympack/internal/gen"
	"sympack/internal/gpu"
)

func TestSolveDistributedMatchesSequential(t *testing.T) {
	for name, a := range testProblems() {
		for _, mp := range []MappingKind{Map2DCyclic, Map1DCols, MapSubtree} {
			for _, p := range []int{1, 2, 4, 7} {
				f, err := Factorize(a, Options{Ranks: p, Mapping: mp})
				if err != nil {
					t.Fatalf("%s %v p=%d: %v", name, mp, p, err)
				}
				rng := rand.New(rand.NewSource(3))
				b := make([]float64, a.N)
				for i := range b {
					b[i] = rng.NormFloat64()
				}
				seq, err := f.Solve(b)
				if err != nil {
					t.Fatal(err)
				}
				dist, err := f.SolveDistributed(b)
				if err != nil {
					t.Fatalf("%s %v p=%d: %v", name, mp, p, err)
				}
				for i := range seq {
					if d := math.Abs(seq[i] - dist[i]); d > 1e-10*(1+math.Abs(seq[i])) {
						t.Fatalf("%s %v p=%d: x[%d] differs by %g", name, mp, p, i, d)
					}
				}
				if r := ResidualNorm(a, dist, b); r > 1e-10 {
					t.Fatalf("%s %v p=%d: residual %g", name, mp, p, r)
				}
			}
		}
	}
}

// TestSolveDistributedAllocBudget pins what one distributed solve allocates,
// under one budget for problems of 1.8k and 7.1k blocks: the state the
// pattern determines (block map, row CSR, contribution slots, the ranks'
// counters and queues) is built by the first solve on a factor, a message
// is a value, and a contribution is written into its block's slot, so what
// remains per solve is the runtime and its registry, the rank goroutines
// and the solution vector (≈ 350). Like the factor budget it is a function
// of the code and the problem, not of the host. A closure, a contribution
// vector or an index array per message or per block grows with the block
// count and fails the budget; so did the closure-RPC solve (≈ 5.6k at
// 10³).
func TestSolveDistributedAllocBudget(t *testing.T) {
	const budget = 600
	for _, s := range []int{10, 16} {
		a := gen.Laplace3D(s, s, s)
		f, err := Factorize(a, Options{Ranks: 4})
		if err != nil {
			t.Fatal(err)
		}
		b := make([]float64, a.N)
		for i := range b {
			b[i] = 1
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := f.SolveDistributed(b); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("Laplace3D %d³: %.0f allocs per solve (%d blocks, budget %d)", s, allocs, f.St.NumBlocks(), budget)
		if allocs > budget {
			t.Errorf("Laplace3D %d³: %.0f allocs per distributed solve, budget %d", s, allocs, budget)
		}
	}
}

// TestSolveDistributedStats checks what a distributed solve leaves on the
// factor: its clocks in SolveStats, and its communication added to the
// factorization's in Metrics by one Import — counters grow by the solve's
// own message count, the factorization's device gauges do not move.
func TestSolveDistributedStats(t *testing.T) {
	a := gen.Laplace3D(4, 4, 4)
	th := gpu.Thresholds{Potrf: 1, Trsm: 1, Syrk: 1, Gemm: 1}
	f, err := Factorize(a, Options{Ranks: 4, GPUsPerNode: 1, Thresholds: &th})
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, a.N)
	for i := range b {
		b[i] = 1
	}
	gauges := func() map[string]float64 {
		out := map[string]float64{}
		for _, se := range f.Metrics.Snapshot().Series {
			if se.Kind == "gauge" && strings.HasPrefix(se.Name, "sympack_gpu_") {
				out[se.Name+"/"+se.Labels[0].Value] = se.Value
			}
		}
		return out
	}
	before := gauges()
	if before["sympack_gpu_device_mem_peak_elements/0"] == 0 {
		t.Fatalf("factorization left no device high-water mark to protect: %v", before)
	}
	sent := []float64{f.Metrics.Value("sympack_upcxx_signals_sent_total")}
	received := []float64{f.Metrics.Value("sympack_upcxx_signals_received_total")}
	for i := 0; i < 2; i++ {
		if _, err := f.SolveDistributed(b); err != nil {
			t.Fatal(err)
		}
		sent = append(sent, f.Metrics.Value("sympack_upcxx_signals_sent_total"))
		received = append(received, f.Metrics.Value("sympack_upcxx_signals_received_total"))
	}
	if f.SolveStats.Wall <= 0 || f.SolveStats.ModelSeconds <= 0 {
		t.Fatalf("solve stats not populated: %+v", f.SolveStats)
	}
	// Every message of a sweep is executed before its rank returns, and the
	// message count is a property of the structure: both solves add the same.
	grew := sent[1] - sent[0]
	if grew <= 0 || received[1]-received[0] != grew {
		t.Errorf("first solve: %g signals sent, %g received", grew, received[1]-received[0])
	}
	if sent[2]-sent[1] != grew || received[2]-received[1] != grew {
		t.Errorf("second solve added %g sent / %g received, first %g", sent[2]-sent[1], received[2]-received[1], grew)
	}
	if after := gauges(); !reflect.DeepEqual(after, before) {
		t.Errorf("device gauges moved across a solve:\nbefore %v\nafter  %v", before, after)
	}
}

func TestSolveDistributedRHSLength(t *testing.T) {
	a := gen.Laplace2D(5, 5)
	f, err := Factorize(a, Options{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.SolveDistributed(make([]float64, 3)); err == nil {
		t.Fatal("expected length error")
	}
}

// Property: distributed and sequential solves agree for random systems and
// rank counts.
func TestSolveDistributedProperty(t *testing.T) {
	f := func(seed int64, nRaw, pRaw uint8) bool {
		n := int(nRaw%25) + 1
		p := int(pRaw%6) + 1
		a := gen.RandomSPD(n, 0.25, seed)
		fac, err := Factorize(a, Options{Ranks: p})
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed + 5))
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := fac.SolveDistributed(b)
		if err != nil {
			return false
		}
		return ResidualNorm(a, x, b) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveDistributedMulti(t *testing.T) {
	a := gen.Laplace2D(7, 7)
	f, err := Factorize(a, Options{Ranks: 3})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	bs := make([][]float64, 3)
	for i := range bs {
		bs[i] = make([]float64, a.N)
		for j := range bs[i] {
			bs[i][j] = rng.NormFloat64()
		}
	}
	xs, err := f.SolveDistributedMulti(bs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if r := ResidualNorm(a, xs[i], bs[i]); r > 1e-10 {
			t.Fatalf("rhs %d: residual %g", i, r)
		}
	}
	if _, err := f.SolveDistributedMulti([][]float64{make([]float64, 2)}); err == nil {
		t.Fatal("expected length error")
	}
}
