package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"sympack/internal/blas"
	"sympack/internal/gen"
	"sympack/internal/matrix"
	"sympack/internal/ordering"
	"sympack/internal/symbolic"
)

// scalarForward is the one-vector forward substitution the panel solve
// replaced, kept as its oracle: a diagonal Trsm, then indexed loops over
// every off-diagonal block whatever the supernode's width.
func scalarForward(f *Factor, y []float64) {
	st := f.St
	for k := 0; k < st.NumSupernodes(); k++ {
		sn := &st.Snodes[k]
		nc := sn.NCols()
		blks := st.SnodeBlocks(int32(k))
		yk := y[sn.FirstCol : int(sn.FirstCol)+nc]
		blas.Trsm(blas.Left, blas.Lower, blas.NoTrans, nc, 1, 1, f.Data[blks[0].ID], nc, yk, nc)
		for bi := 1; bi < len(blks); bi++ {
			blk := &blks[bi]
			data := f.Data[blk.ID]
			m := int(blk.NRows)
			rows := sn.Rows[blk.RowOff : blk.RowOff+blk.NRows]
			for c := 0; c < nc; c++ {
				t := yk[c]
				if t == 0 {
					continue
				}
				col := data[c*m : c*m+m]
				for x := 0; x < m; x++ {
					y[rows[x]] -= float64(col[x] * t)
				}
			}
		}
	}
}

// scalarBackward is scalarForward's transpose twin.
func scalarBackward(f *Factor, y []float64) {
	st := f.St
	for k := st.NumSupernodes() - 1; k >= 0; k-- {
		sn := &st.Snodes[k]
		nc := sn.NCols()
		blks := st.SnodeBlocks(int32(k))
		yk := y[sn.FirstCol : int(sn.FirstCol)+nc]
		for bi := 1; bi < len(blks); bi++ {
			blk := &blks[bi]
			data := f.Data[blk.ID]
			m := int(blk.NRows)
			rows := sn.Rows[blk.RowOff : blk.RowOff+blk.NRows]
			for c := 0; c < nc; c++ {
				col := data[c*m : c*m+m]
				var s float64
				for x := 0; x < m; x++ {
					s += float64(col[x] * y[rows[x]])
				}
				yk[c] -= s
			}
		}
		blas.Trsm(blas.Left, blas.Lower, blas.Transpose, nc, 1, 1, f.Data[blks[0].ID], nc, yk, nc)
	}
}

// TestSolvePanelMatchesScalar checks the panel solve against the one-vector
// scalar sweeps bit for bit, column by column, at panel widths 1 to 17. The
// right-hand sides carry planted zeros — scattered signed zeros, a zero
// leading half in factor order, an all-zero column — so the t == 0 skip is
// taken on both branches. Each problem must have supernodes on both sides
// of panelMin with off-diagonal blocks, so the gathered Gemm and the
// indexed loops both run. Each factor solves at 1, 2 and 4 workers, and at
// more than one its solve must split into several units, so the lanes run;
// four Ps leave room for four.
func TestSolvePanelMatchesScalar(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	problems := []struct {
		name string
		a    *matrix.SparseSym
	}{
		{"Flan3D(8,8,8,1)", gen.Flan3D(8, 8, 8, 1)},
		{"Thermal2D(40,40,4,2)", gen.Thermal2D(40, 40, 4, 2)},
		{"Laplace3D(10,10,10)", gen.Laplace3D(10, 10, 10)},
	}
	rng := rand.New(rand.NewSource(30))
	for _, p := range problems {
		for _, workers := range []int{1, 2, 4} {
			f, err := Factorize(p.a, Options{Ranks: 1, Workers: workers})
			if err != nil {
				t.Fatalf("%s: %v", p.name, err)
			}
			if units := len(f.solve.get(f.St).units); workers > 1 && units < 2 {
				t.Fatalf("%s: %d solve unit(s): the lanes are not exercised", p.name, units)
			}
			checkPanelMatchesScalar(t, fmt.Sprintf("%s workers=%d", p.name, workers), f, rng)
		}
	}
}

// checkPanelMatchesScalar runs one factor's half of
// TestSolvePanelMatchesScalar.
func checkPanelMatchesScalar(t *testing.T, name string, f *Factor, rng *rand.Rand) {
	t.Helper()
	st := f.St
	var thin, wide bool
	for k := range st.Snodes {
		if len(st.SnodeBlocks(int32(k))) > 1 {
			thin = thin || st.Snodes[k].NCols() < panelMin
			wide = wide || st.Snodes[k].NCols() >= panelMin
		}
	}
	if !thin || !wide {
		t.Fatalf("%s: thin branch %v, wide branch %v: want both exercised", name, thin, wide)
	}
	n := st.N
	for _, nrhs := range []int{1, 2, 3, 8, 17} {
		bs := make([][]float64, nrhs)
		for j := range bs {
			b := make([]float64, n)
			for i := range b {
				b[i] = rng.NormFloat64()
			}
			switch {
			case j == 3:
				clear(b)
			case j%2 == 1:
				for k := 0; k < n/2; k++ {
					b[st.Perm[k]] = 0
				}
			default:
				for i := range b {
					if rng.Intn(5) == 0 {
						b[i] = math.Copysign(0, float64(rng.Intn(2)*2-1))
					}
				}
			}
			bs[j] = b
		}
		xs, err := f.SolveMulti(bs)
		if err != nil {
			t.Fatalf("%s nrhs=%d: %v", name, nrhs, err)
		}
		for j, b := range bs {
			y := make([]float64, n)
			for k, pk := range st.Perm {
				y[k] = b[pk]
			}
			scalarForward(f, y)
			scalarBackward(f, y)
			for k, pk := range st.Perm {
				if got, want := math.Float64bits(xs[j][pk]), math.Float64bits(y[k]); got != want {
					t.Fatalf("%s nrhs=%d: column %d, row %d: panel %x, scalar %x", name, nrhs, j, pk, got, want)
				}
			}
		}
	}
}

// TestSolveMultiWidthBits checks that SolveMulti gives, column by column,
// the bits of Solve on that column alone at panel widths 2, 3, 7, 8, 9 and
// 17: the interleaved sweeps' lane remainders, a full group of
// blas.RHSLanes, and one and two groups with a remainder, which
// TestSolveBitsGolden's three right-hand sides never reach. It runs on
// TestSolveBitsGolden's problems at one worker and at two, where the lanes
// run (two Ps leave room for the helper), with two sets of right-hand
// sides. The dense set is TestSolveBitsGolden's recipe, b[i] = 0.5 +
// U[0,1), in which no multiplier is ever zero. The sparse set is +0 and −0
// of random sign but for a few nonzeros per column, and its second column
// is zero throughout, so the zero skip runs lane by lane: a lane whose
// multiplier is ±0 must skip its step while the others in its vector take
// theirs, or −0 − (−0) turns a −0 into +0.
func TestSolveMultiWidthBits(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	problems := []struct {
		name string
		a    *matrix.SparseSym
	}{
		{"Flan3D(10,10,10,1)", gen.Flan3D(10, 10, 10, 1)},
		{"Thermal2D(64,64,4,2)", gen.Thermal2D(64, 64, 4, 2)},
		{"Laplace3D(12,12,12)", gen.Laplace3D(12, 12, 12)},
	}
	widths := []int{2, 3, 7, 8, 9, 17}
	for _, p := range problems {
		rng := rand.New(rand.NewSource(1))
		dense := make([][]float64, widths[len(widths)-1])
		for j := range dense {
			dense[j] = make([]float64, p.a.N)
			for i := range dense[j] {
				dense[j][i] = 0.5 + rng.Float64()
			}
		}
		sets := []struct {
			name string
			bs   [][]float64
		}{
			{"dense", dense},
			{"sparse", sparseRHS(rand.New(rand.NewSource(2)), p.a.N, widths[len(widths)-1])},
		}
		for _, workers := range []int{1, 2} {
			f, err := Factorize(p.a, Options{Ranks: 1, Workers: workers})
			if err != nil {
				t.Fatalf("%s: %v", p.name, err)
			}
			if units := len(f.solve.get(f.St).units); workers > 1 && units < 2 {
				t.Fatalf("%s: %d solve unit(s): the lanes are not exercised", p.name, units)
			}
			for _, set := range sets {
				name := fmt.Sprintf("%s workers=%d %s", p.name, workers, set.name)
				single := make([][]float64, len(set.bs))
				for j, b := range set.bs {
					if single[j], err = f.Solve(b); err != nil {
						t.Fatalf("%s: Solve: %v", name, err)
					}
				}
				for _, nrhs := range widths {
					multi, err := f.SolveMulti(set.bs[:nrhs])
					if err != nil {
						t.Fatalf("%s nrhs=%d: SolveMulti: %v", name, nrhs, err)
					}
					sameBits(t, fmt.Sprintf("%s nrhs=%d: SolveMulti against Solve", name, nrhs), multi, single[:nrhs])
				}
			}
		}
	}
}

// sparseRHS returns nrhs right-hand sides of length n that are +0 or −0,
// at random, but for two to five normal entries per column; column 1 has
// none.
func sparseRHS(rng *rand.Rand, n, nrhs int) [][]float64 {
	bs := make([][]float64, nrhs)
	for j := range bs {
		b := make([]float64, n)
		for i := range b {
			b[i] = math.Copysign(0, float64(rng.Intn(2)*2-1))
		}
		if j != 1 {
			for range 2 + rng.Intn(4) {
				b[rng.Intn(n)] = rng.NormFloat64()
			}
		}
		bs[j] = b
	}
	return bs
}

// solveAt solves bs on f at the given worker count.
func solveAt(t *testing.T, f *Factor, workers int, bs [][]float64) [][]float64 {
	t.Helper()
	saved := f.Opt.Workers
	defer func() { f.Opt.Workers = saved }()
	f.Opt.Workers = workers
	xs, err := f.SolveMulti(bs)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return xs
}

// sameBits fails t unless got and want hold the same bits.
func sameBits(t *testing.T, name string, got, want [][]float64) {
	t.Helper()
	for j := range want {
		for i := range want[j] {
			if math.Float64bits(got[j][i]) != math.Float64bits(want[j][i]) {
				t.Fatalf("%s: column %d, row %d: %x, want %x", name, j, i,
					math.Float64bits(got[j][i]), math.Float64bits(want[j][i]))
			}
		}
	}
}

// randomRHS returns nrhs right-hand sides of length n.
func randomRHS(rng *rand.Rand, n, nrhs int) [][]float64 {
	bs := make([][]float64, nrhs)
	for j := range bs {
		bs[j] = make([]float64, n)
		for i := range bs[j] {
			bs[j][i] = rng.NormFloat64()
		}
	}
	return bs
}

// TestSolveLanesICAndLoaded solves two factors the other bit tests do not
// reach at four workers and at one, bit for bit: an IC(k) factor, whose
// Incomplete structure is one unit, and a factor after Save → LoadFactor,
// whose own schedule is built from the loaded structure. Four Ps leave room
// for four lanes.
func TestSolveLanesICAndLoaded(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rng := rand.New(rand.NewSource(48))
	a := gen.Thermal2D(64, 64, 4, 2)
	st, pa, err := symbolic.AnalyzeIC(a, ordering.NestedDissection, symbolic.DefaultOptions(), symbolic.ICOptions{Level: 2})
	if err != nil {
		t.Fatal(err)
	}
	ic, err := FactorizeAnalyzed(st, pa, Options{Ranks: 1, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if units := len(ic.solve.get(ic.St).units); units != 1 {
		t.Fatalf("IC(2): %d solve units, want 1", units)
	}
	bs := randomRHS(rng, a.N, 3)
	sameBits(t, "IC(2)", solveAt(t, ic, 4, bs), solveAt(t, ic, 1, bs))

	f, err := Factorize(gen.Laplace3D(12, 12, 12), Options{Ranks: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := LoadFactor(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if units := len(g.solve.get(g.St).units); units < 2 {
		t.Fatalf("loaded factor: %d solve unit(s): the lanes are not exercised", units)
	}
	bs = randomRHS(rng, f.St.N, 3)
	sameBits(t, "loaded", solveAt(t, g, 4, bs), solveAt(t, g, 1, bs))
}

// TestLoadFactorRejectsBlockBelowItsSupernode gives a saved factor a block
// whose RowSn lies below its own supernode, every index still in range: run
// on the lanes, its unit edges would form a cycle and the solve would wait
// forever. LoadFactor must reject it, as it rejects every structure that
// fails symbolic.Structure.ValidateLayout.
func TestLoadFactorRejectsBlockBelowItsSupernode(t *testing.T) {
	f, err := Factorize(gen.Laplace3D(10, 10, 10), Options{Ranks: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	k := int32(f.St.NumSupernodes() - 1)
	for ; k > 0 && len(f.St.SnodeBlocks(k)) < 2; k-- {
	}
	if k == 0 {
		t.Fatal("no supernode above the first with an off-diagonal block")
	}
	f.St.SnodeBlocks(k)[1].RowSn = k - 1
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFactor(&buf); err == nil {
		t.Fatal("load of a block below its supernode succeeded")
	}
}

// TestSolveLanesWithinProcs: a solve takes a helper only while the solve
// lanes of the process stay within GOMAXPROCS, so a solve that finds the
// Ps full runs alone, on the sequential loops, and allocates what a
// one-worker solve does.
func TestSolveLanesWithinProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	first := takeLanes(4)
	second := takeLanes(4)
	giveLanes(first)
	giveLanes(second)
	if first != 2 || second != 1 {
		t.Fatalf("two calls at 4 workers on 2 Ps took %d and %d lanes, want 2 and 1", first, second)
	}
	if n := solveLanes.Load(); n != 0 {
		t.Fatalf("%d lanes held after every call gave its back", n)
	}

	f, err := Factorize(gen.Laplace3D(10, 10, 10), Options{Ranks: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, f.St.N)
	for i := range b {
		b[i] = 1
	}
	solve := func() {
		if _, err := f.Solve(b); err != nil {
			t.Fatal(err)
		}
	}
	if free := allocsAtProcs(5, solve); free <= 3 {
		t.Fatalf("Solve on free Ps allocates %.0f objects: the lanes are not exercised", free)
	}
	full := takeLanes(2)
	allocs := allocsAtProcs(5, solve)
	giveLanes(full)
	if allocs != 3 {
		t.Fatalf("Solve on full Ps allocates %.0f objects, want the sequential 3", allocs)
	}
}

// allocsAtProcs is testing.AllocsPerRun without its switch to one P, at
// which a solve takes no helper: the mean number of allocations of a run
// of f after one warm-up run.
func allocsAtProcs(runs int, f func()) float64 {
	f()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&m1)
	return float64((m1.Mallocs - m0.Mallocs) / uint64(runs))
}

// TestSolveLanePanicIsAnError corrupts a diagonal block so that the kernel
// solving it panics on whichever lane runs it: the solve must return an
// error wrapping ErrInternal, not crash, and leave no goroutine behind. Two
// Ps leave room for the helper.
func TestSolveLanePanicIsAnError(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	f, err := Factorize(gen.Laplace3D(10, 10, 10), Options{Ranks: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if units := len(f.solve.get(f.St).units); units < 2 {
		t.Fatalf("%d solve unit(s): the lanes are not exercised", units)
	}
	root := int32(f.St.NumSupernodes() - 1)
	f.Data[f.St.DiagBlock(root).ID] = nil
	before := runtime.NumGoroutine()
	_, err = f.SolveMulti(randomRHS(rand.New(rand.NewSource(1)), f.St.N, 2))
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("err = %v, want one wrapping ErrInternal", err)
	}
	goroutinesBack(t, before)
}

// goroutinesBack fails t unless the goroutine count falls back to before
// within five seconds: a solve's helpers have all exited.
func goroutinesBack(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after the solves, %d before", n, before)
	}
}

// TestSolveAllocBudget pins what a solve allocates: the panel (at one
// right-hand side with its gather workspace behind it, in one buffer; at
// more there is no workspace), the slice of solutions and one vector per
// solution — 3 objects for Solve, nrhs + 2 for SolveMulti — whatever n and
// the number of blocks. A per-block or per-supernode buffer fails it. At
// two workers the lanes add a fixed laneAllocs however many units the
// schedule has: the run's state, its unit counters, its ready queue and per
// sweep the helper's closure (5), and per sweep one goroutine the runtime
// could not reuse, as when the last helper exited on the other P (2). Those
// rows count at two Ps (allocsAtProcs), where the helper runs.
func TestSolveAllocBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const laneAllocs = 7
	problems := []struct {
		name string
		a    *matrix.SparseSym
	}{
		{"Thermal2D 32²", gen.Thermal2D(32, 32, 3, 1)},
		{"Thermal2D 64²", gen.Thermal2D(64, 64, 3, 1)},
		{"Thermal2D 128²", gen.Thermal2D(128, 128, 3, 1)},
		{"Laplace3D 12³", gen.Laplace3D(12, 12, 12)},
	}
	for _, p := range problems {
		for _, workers := range []int{1, 2} {
			f, err := Factorize(p.a, Options{Ranks: 1, Workers: workers})
			if err != nil {
				t.Fatalf("%s: %v", p.name, err)
			}
			extra, units, allocs := 0.0, 1, testing.AllocsPerRun
			if workers > 1 {
				allocs = allocsAtProcs
				extra, units = laneAllocs, len(f.solve.get(f.St).units)
				if units < 2 {
					t.Fatalf("%s: one solve unit: the lanes are not exercised", p.name)
				}
			}
			name := fmt.Sprintf("%s workers=%d (%d units)", p.name, workers, units)
			b := make([]float64, p.a.N)
			for i := range b {
				b[i] = 1
			}
			single := allocs(5, func() {
				if _, err := f.Solve(b); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%s: Solve %.0f allocs", name, single)
			if budget := 3 + extra; single > budget {
				t.Errorf("%s: Solve allocates %.0f objects, budget %.0f", name, single, budget)
			}
			for _, nrhs := range []int{2, 8} {
				bs := make([][]float64, nrhs)
				for j := range bs {
					bs[j] = b
				}
				multi := allocs(5, func() {
					if _, err := f.SolveMulti(bs); err != nil {
						t.Fatal(err)
					}
				})
				t.Logf("%s: SolveMulti(%d) %.0f allocs", name, nrhs, multi)
				if budget := float64(nrhs+2) + extra; multi > budget {
					t.Errorf("%s: SolveMulti(%d) allocates %.0f objects, budget %.0f", name, nrhs, multi, budget)
				}
			}
		}
	}
}

// BenchmarkSolvePanel times the shared-memory solve at one rank on the
// benchmark workloads' matrices, at one lane and at two: one right-hand
// side, and panels of eight — on Laplace3D the shape of a
// laplace_reuse_pool op — and, on Thermal2D's thin supernodes, two, where
// a kernel call has the fewest right-hand sides to run across.
func BenchmarkSolvePanel(b *testing.B) {
	cases := []struct {
		name string
		a    *matrix.SparseSym
		nrhs int
	}{
		{"Laplace3D-24/nrhs=1", gen.Laplace3D(24, 24, 24), 1},
		{"Laplace3D-24/nrhs=8", gen.Laplace3D(24, 24, 24), 8},
		{"Flan3D-14/nrhs=1", gen.Flan3D(14, 14, 14, 1), 1},
		{"Flan3D-14/nrhs=8", gen.Flan3D(14, 14, 14, 1), 8},
		{"Thermal2D-256/nrhs=1", gen.Thermal2D(256, 256, 12, 1), 1},
		{"Thermal2D-256/nrhs=2", gen.Thermal2D(256, 256, 12, 1), 2},
		{"Thermal2D-256/nrhs=8", gen.Thermal2D(256, 256, 12, 1), 8},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(b *testing.B) {
				f, err := Factorize(c.a, Options{Ranks: 1, Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				bs := make([][]float64, c.nrhs)
				for j := range bs {
					bs[j] = make([]float64, c.a.N)
					for i := range bs[j] {
						bs[j][i] = float64(1 + (i+j)%7)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := f.SolveMulti(bs); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
