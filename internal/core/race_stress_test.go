//go:build race

// Race-detector stress for intra-rank helper workers. The build tag keeps
// it out of ordinary runs: the configurations below are chosen to maximize
// concurrent scheduler traffic (tiny supernodes → many tasks, high update
// fan-in, more workers than cores are likely to serve), which is slow and
// uninteresting without the race runtime watching the interleavings. CI's
// -race job picks it up automatically.
package core

import (
	"math"
	"testing"

	"sympack/internal/gen"
	"sympack/internal/gpu"
	"sympack/internal/symbolic"
)

// TestRaceStressWorkerPool hammers the workers with the worst scheduler shape:
// width-2 supernodes over a 3D Laplacian produce thousands of tiny tasks
// whose updates fan into shared target blocks, so workers continuously
// contend on the RTQ heap, the per-block apply locks and the dependency
// counters while the rank goroutine's polling races them with RPC deliveries.
func TestRaceStressWorkerPool(t *testing.T) {
	a := gen.Laplace3D(6, 6, 6)
	sym := symbolic.DefaultOptions()
	sym.MaxSupernodeSize = 2
	sym.RelaxRatio = 0
	for _, ranks := range []int{1, 2} {
		f, err := Factorize(a, Options{Ranks: ranks, Workers: 8, Symbolic: &sym})
		if err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		if r := solveCheck(t, a, f, 1); r > 1e-10 {
			t.Fatalf("ranks=%d: residual %g > 1e-10", ranks, r)
		}
	}
}

// TestRaceStressGPUAdmission adds the device to the contended surface: a
// tiny capacity plus zero offload thresholds force every worker through the
// admission semaphore, the allocator, and the OOM-fallback path at once.
func TestRaceStressGPUAdmission(t *testing.T) {
	a := gen.Laplace3D(5, 5, 5)
	sym := symbolic.DefaultOptions()
	sym.MaxSupernodeSize = 4
	thr := gpu.Thresholds{Potrf: 1, Trsm: 1, Syrk: 1, Gemm: 1}
	f, err := Factorize(a, Options{
		Ranks:          2,
		Workers:        8,
		GPUsPerNode:    1,
		DeviceCapacity: 600,
		Thresholds:     &thr,
		Symbolic:       &sym,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r := solveCheck(t, a, f, 2); r > 1e-10 {
		t.Fatalf("residual %g > 1e-10", r)
	}
}

// TestRaceStressScratchPool hammers the update-scratch free list through
// park and drain: four workers on one rank under fan-out, where every
// contribution is a pool buffer. Narrow supernodes make most updates finish
// out of turn, so a buffer taken by one lane is parked, scattered and
// returned by another while the rest keep drawing from the same size
// classes. The factor must still match the single-worker bits.
func TestRaceStressScratchPool(t *testing.T) {
	a := gen.Laplace3D(7, 7, 7)
	sym := symbolic.DefaultOptions()
	sym.MaxSupernodeSize = 2
	sym.RelaxRatio = 0
	ref, err := Factorize(a, Options{Ranks: 1, Workers: 1, Symbolic: &sym})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		f, err := Factorize(a, Options{Ranks: 1, Workers: 4, Symbolic: &sym})
		if err != nil {
			t.Fatal(err)
		}
		if parked := f.Metrics.Snapshot().Value("sympack_core_updates_parked_total"); parked == 0 {
			t.Fatal("no update parked: the drain path was not exercised")
		}
		for bid := range f.Data {
			for i, v := range f.Data[bid] {
				if math.Float64bits(v) != math.Float64bits(ref.Data[bid][i]) {
					t.Fatalf("round %d: block %d elem %d differs from the single-worker factor", round, bid, i)
				}
			}
		}
	}
}
