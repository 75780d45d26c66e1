//go:build race

// Race-detector stress for intra-rank helper workers. The build tag keeps
// it out of ordinary runs: the configurations below are chosen to maximize
// concurrent scheduler traffic (tiny supernodes → many tasks, high update
// fan-in, more workers than cores are likely to serve), which is slow and
// uninteresting without the race runtime watching the interleavings. CI's
// -race job picks it up automatically.
package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"sympack/internal/gen"
	"sympack/internal/gpu"
	"sympack/internal/machine"
	"sympack/internal/matrix"
	"sympack/internal/symbolic"
)

// TestRaceStressWorkerPool hammers the workers with the worst scheduler shape:
// width-2 supernodes over a 3D Laplacian produce thousands of tiny tasks
// whose updates fan into shared target blocks, so workers continuously
// contend on the RTQ and the dependency counters, each update passing its
// target's turn on to the next, while the rank goroutine's polling races
// them with RPC deliveries.
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

// TestRaceStressDeferredApply hammers the chain of updates into each target
// block: four workers on one rank, where narrow supernodes make most
// updates wait for their turn after their sources are in, so the lane that
// applies an update readies the next one into the same block and runs it
// next, with no lock held, while other lanes ready, compute and apply
// updates into other blocks. Under fan-out each kernel runs into the
// applying lane's buffer; under fan-both the chain scatters delivered
// contributions; with a device and thresholds of 1 every chained kernel
// goes through onDevice. The factor must still match the single-worker
// bits. At 9³ the two halves below the top separator run as subtree tasks
// and the separator's ≈ 30k tasks stay.
func TestRaceStressDeferredApply(t *testing.T) {
	a := gen.Laplace3D(9, 9, 9)
	sym := symbolic.DefaultOptions()
	sym.MaxSupernodeSize = 2
	sym.RelaxRatio = 0
	thr := gpu.Thresholds{Potrf: 1, Trsm: 1, Syrk: 1, Gemm: 1}
	cases := []struct {
		name string
		opt  Options
	}{
		{"fanout", Options{Symbolic: &sym}},
		{"fanboth", Options{Symbolic: &sym, Formulation: FanBoth}},
		{"fanout-gpu", Options{Symbolic: &sym, GPUsPerNode: 1, Thresholds: &thr}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			opt := c.opt
			opt.Ranks, opt.Workers = 1, 1
			ref, err := Factorize(a, opt)
			if err != nil {
				t.Fatal(err)
			}
			opt.Workers = 4
			for round := 0; round < 3; round++ {
				f, err := Factorize(a, opt)
				if err != nil {
					t.Fatal(err)
				}
				if parked := f.Metrics.Snapshot().Value("sympack_core_updates_parked_total"); parked == 0 {
					t.Fatal("no update readied by its predecessor: the chain was not exercised")
				}
				if opt.GPUsPerNode > 0 && f.Stats.PerRank[0].GPU[machine.OpGemm] == 0 {
					t.Fatal("no GEMM ran on the device")
				}
				for bid := range f.Data {
					for i, v := range f.Data[bid] {
						if math.Float64bits(v) != math.Float64bits(ref.Data[bid][i]) {
							t.Fatalf("round %d: block %d elem %d differs from the single-worker factor", round, bid, i)
						}
					}
				}
			}
		})
	}
}

// TestRaceStressSubtreeTasks races the subtree tasks: their kernels run on
// one lane with no lock held while other lanes run the rest of the task
// graph, and their blocks are published through acquire (one rank) or
// through signals to the ranks computing the updates that leave them
// (MapSubtree at four ranks). The factor must match the one-rank,
// one-worker bits, and the run must have folded something.
func TestRaceStressSubtreeTasks(t *testing.T) {
	a := gen.Thermal2D(64, 64, 4, 2)
	ref, err := Factorize(a, Options{Ranks: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		opt  Options
	}{
		{"r1w4", Options{Ranks: 1, Workers: 4}},
		{"r1w4-fanboth", Options{Ranks: 1, Workers: 4, Formulation: FanBoth}},
		{"subtree-r4w1", Options{Ranks: 4, Workers: 1, Mapping: MapSubtree}},
		{"subtree-r4w2", Options{Ranks: 4, Workers: 2, Mapping: MapSubtree}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f, err := Factorize(a, c.opt)
			if err != nil {
				t.Fatal(err)
			}
			if !folded(f) {
				t.Fatal("nothing folded")
			}
			for bid := range f.Data {
				for i, v := range f.Data[bid] {
					if math.Float64bits(v) != math.Float64bits(ref.Data[bid][i]) {
						t.Fatalf("block %d elem %d differs from the one-rank, one-worker factor", bid, i)
					}
				}
			}
		})
	}
}

// TestRaceStressSolveLanes runs four SolveMulti calls at once on one
// factor at four workers, on sixteen Ps so that all sixteen lanes run: they
// share its blocks and its schedule while each call writes only its own
// panel, counters and queue. Narrow supernodes on Thermal2D give a graph of
// many small units, and Laplace3D 10³ one with wide separators. Every
// answer must have the one-worker bits, and every helper must be gone once
// the calls return.
func TestRaceStressSolveLanes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(16))
	sym := symbolic.DefaultOptions()
	sym.MaxSupernodeSize = 4
	cases := []struct {
		name string
		a    *matrix.SparseSym
		sym  *symbolic.Options
	}{
		{"Thermal2D(48,48,4,2) thin", gen.Thermal2D(48, 48, 4, 2), &sym},
		{"Laplace3D(10,10,10)", gen.Laplace3D(10, 10, 10), nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f, err := Factorize(c.a, Options{Ranks: 1, Workers: 4, Symbolic: c.sym})
			if err != nil {
				t.Fatal(err)
			}
			if units := len(f.solve.get(f.St).units); units < 2 {
				t.Fatalf("%d solve unit(s): the lanes are not exercised", units)
			}
			bs := randomRHS(rand.New(rand.NewSource(7)), c.a.N, 3)
			want := solveAt(t, f, 1, bs)
			before := runtime.NumGoroutine()
			var wg sync.WaitGroup
			errs := make([]error, 4)
			got := make([][][]float64, 4)
			for g := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for round := 0; round < 3 && errs[g] == nil; round++ {
						got[g], errs[g] = f.SolveMulti(bs)
					}
				}()
			}
			wg.Wait()
			for g := range got {
				if errs[g] != nil {
					t.Fatalf("caller %d: %v", g, errs[g])
				}
				sameBits(t, fmt.Sprintf("caller %d", g), got[g], want)
			}
			goroutinesBack(t, before)
		})
	}
}
