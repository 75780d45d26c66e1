package core

import (
	"math"
	"math/rand"
	"testing"

	"sympack/internal/blas"
	"sympack/internal/gen"
	"sympack/internal/matrix"
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
// indexed loops both run.
func TestSolvePanelMatchesScalar(t *testing.T) {
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
		f, err := Factorize(p.a, Options{Ranks: 1, Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		st := f.St
		var thin, wide bool
		for k := range st.Snodes {
			if len(st.SnodeBlocks(int32(k))) > 1 {
				thin = thin || st.Snodes[k].NCols() < panelMin
				wide = wide || st.Snodes[k].NCols() >= panelMin
			}
		}
		if !thin || !wide {
			t.Fatalf("%s: thin branch %v, wide branch %v: want both exercised", p.name, thin, wide)
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
				t.Fatalf("%s nrhs=%d: %v", p.name, nrhs, err)
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
						t.Fatalf("%s nrhs=%d: column %d, row %d: panel %x, scalar %x", p.name, nrhs, j, pk, got, want)
					}
				}
			}
		}
	}
}

// TestSolveAllocBudget pins what a solve allocates: the panel and its
// gather workspace in one buffer, the slice of solutions and one vector per
// solution — 3 objects for Solve, nrhs + 2 for SolveMulti — whatever n and
// the number of blocks. A per-block or per-supernode buffer fails it.
func TestSolveAllocBudget(t *testing.T) {
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
		f, err := Factorize(p.a, Options{Ranks: 1, Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		b := make([]float64, p.a.N)
		for i := range b {
			b[i] = 1
		}
		single := testing.AllocsPerRun(5, func() {
			if _, err := f.Solve(b); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: Solve %.0f allocs", p.name, single)
		if single > 3 {
			t.Errorf("%s: Solve allocates %.0f objects, budget 3", p.name, single)
		}
		for _, nrhs := range []int{2, 8} {
			bs := make([][]float64, nrhs)
			for j := range bs {
				bs[j] = b
			}
			multi := testing.AllocsPerRun(5, func() {
				if _, err := f.SolveMulti(bs); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%s: SolveMulti(%d) %.0f allocs", p.name, nrhs, multi)
			if budget := float64(nrhs + 2); multi > budget {
				t.Errorf("%s: SolveMulti(%d) allocates %.0f objects, budget %.0f", p.name, nrhs, multi, budget)
			}
		}
	}
}

// BenchmarkSolvePanel times the shared-memory solve at one rank on the
// benchmark workloads' matrices: one right-hand side and, on Laplace3D, a
// panel of eight — the shape of a laplace_reuse_pool op.
func BenchmarkSolvePanel(b *testing.B) {
	cases := []struct {
		name string
		a    *matrix.SparseSym
		nrhs int
	}{
		{"Laplace3D-24/nrhs=1", gen.Laplace3D(24, 24, 24), 1},
		{"Laplace3D-24/nrhs=8", gen.Laplace3D(24, 24, 24), 8},
		{"Flan3D-14/nrhs=1", gen.Flan3D(14, 14, 14, 1), 1},
		{"Thermal2D-256/nrhs=1", gen.Thermal2D(256, 256, 12, 1), 1},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			f, err := Factorize(c.a, Options{Ranks: 1, Workers: 1})
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
