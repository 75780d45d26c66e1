package blas

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// hostVector and hostTile record whether this build and CPU run the AVX2
// primitives and the AVX-512 register tile. The tests only switch useVector
// and useTile on where they were on at init: elsewhere the assembly is
// absent or would fault.
var hostVector, hostTile = useVector, useTile

// withVector runs f with the vector path on or off and restores it after.
func withVector(on bool, f func()) {
	old := useVector
	useVector = on && hostVector
	defer func() { useVector = old }()
	f()
}

// withTile runs f with the register tile on or off and restores it after.
func withTile(on bool, f func()) {
	old := useTile
	useTile = on && hostTile
	defer func() { useTile = old }()
	f()
}

// kernelPath is one of the three paths a build can select: the Go loops,
// the AVX2 axpy under them, and the AVX-512 tile over the axpy.
type kernelPath struct {
	name         string
	vector, tile bool
}

var kernelPaths = []kernelPath{{"Go", false, false}, {"AVX2 axpy", true, false}, {"AVX-512 tile", true, true}}

// onHost reports whether this build and CPU have the path.
func (p kernelPath) onHost() bool { return (!p.vector || hostVector) && (!p.tile || hostTile) }

// run runs f on the path.
func (p kernelPath) run(f func()) { withVector(p.vector, func() { withTile(p.tile, f) }) }

// TestKernelPath logs the kernel path this build and CPU run, so a green
// run that never exercised the assembly is visible in the log.
func TestKernelPath(t *testing.T) {
	path := "Go loops"
	switch {
	case hostTile:
		path = "AVX-512 tile (AVX2 axpy for remainders)"
	case hostVector:
		path = "AVX2 axpy"
	}
	t.Logf("kernel path: %s", path)
}

// specials are the values a bit-identity test must get right: signed zeros,
// subnormals, infinities and NaNs with distinct payloads and signs, so a
// kernel that swapped the operands of an add or a multiply would show.
var specials = []float64{
	0, math.Copysign(0, -1), 1, -1, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
	math.Inf(1), math.Inf(-1), math.NaN(),
	math.Float64frombits(0x7ff8000000000abc), math.Float64frombits(0xfff0000000000123 | 1<<51),
	math.MaxFloat64, -math.MaxFloat64,
}

func seeded(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		if rng.Intn(4) == 0 {
			s[i] = specials[rng.Intn(len(specials))]
		} else {
			s[i] = rng.NormFloat64()
		}
	}
	return s
}

func sameBits(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestAxpyScalBitsMatchGo compares the assembly kernels and the dispatching
// wrappers with the Go loops bit for bit, at every length up to 70 (all
// three loop tails), unaligned starts and special multipliers and data. It
// also checks that nothing past len(x) is written. Length 0 is the empty
// column Trsm, Syrk and Potrf pass for their last row: a no-op.
func TestAxpyScalBitsMatchGo(t *testing.T) {
	if !hostVector {
		t.Log("no AVX2 kernels in this build or on this CPU: both paths are the Go loops")
	}
	rng := rand.New(rand.NewSource(29))
	ts := []float64{0, math.Copysign(0, -1), 1, -1, rng.NormFloat64(), math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff8000000000def)}
	const pad = 5
	for n := 0; n <= 70; n++ {
		for off := 0; off <= 3; off++ {
			xs := seeded(rng, off+n)
			ys := seeded(rng, off+n+pad)
			x, y := xs[off:off+n], ys[off:]
			xWas := append([]float64(nil), x...)
			for _, tv := range ts {
				// expect runs k on a fresh copy of y and compares all of it,
				// the padding past n included, with want.
				expect := func(name string, want []float64, k func(out []float64)) {
					t.Helper()
					out := append([]float64(nil), y...)
					k(out)
					if i := sameBits(out, want); i >= 0 {
						t.Fatalf("%s(%v) n=%d off=%d: element %d is %x, Go gives %x",
							name, tv, n, off, i, math.Float64bits(out[i]), math.Float64bits(want[i]))
					}
				}
				want := append([]float64(nil), y...)
				axpyGo(tv, x, want[:n])
				expect("axpy", want, func(out []float64) { withVector(true, func() { axpy(tv, x, out) }) })
				want = append(want[:0], y...)
				scalGo(tv, want[:n])
				expect("scal", want, func(out []float64) { withVector(true, func() { scal(tv, out[:n]) }) })
				if hostVector {
					expect("scalVec", want, func(out []float64) { scalVec(tv, out[:n]) })
					want = append(want[:0], y...)
					axpyGo(tv, x, want[:n])
					expect("axpyVec", want, func(out []float64) { axpyVec(tv, x, out[:n]) })
				}
				if i := sameBits(x, xWas); i >= 0 {
					t.Fatalf("axpy wrote x at %d", i)
				}
			}
		}
	}
}

// TestKernelsVectorEqualsGo runs every Gemm, Syrk, Trsm and Potrf variant at
// random shapes and padded leading dimensions, with zeros planted among the
// multipliers, on each kernel path the host has — the Go loops, the AVX2
// axpy and the AVX-512 tile — and requires identical bits. Its "tile"
// subtest sweeps the three routed kernels (gemmNT, Syrk Lower/NoTrans, Trsm
// Right/Lower/Transpose) over every row and column remainder of the tile.
func TestKernelsVectorEqualsGo(t *testing.T) {
	t.Run("random", testKernelsRandom)
	t.Run("tile", testKernelsTile)
}

// samePaths runs run on a fresh copy of out on every kernel path the host
// has and requires the bits of the Go loops from each.
func samePaths(t *testing.T, name string, out []float64, run func(out []float64)) {
	t.Helper()
	want := append([]float64(nil), out...)
	kernelPaths[0].run(func() { run(want) })
	for _, p := range kernelPaths[1:] {
		if !p.onHost() {
			continue
		}
		got := append([]float64(nil), out...)
		p.run(func() { run(got) })
		if i := sameBits(got, want); i >= 0 {
			t.Fatalf("%s: element %d is %x on the %s path, %x in Go", name, i,
				math.Float64bits(got[i]), p.name, math.Float64bits(want[i]))
		}
	}
}

func testKernelsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	// plant zeroes a quarter of s, half of them negative zeros, so the
	// kernels' t == 0 skips are taken.
	plant := func(s []float64) []float64 {
		for i := range s {
			switch rng.Intn(8) {
			case 0:
				s[i] = 0
			case 1:
				s[i] = math.Copysign(0, -1)
			}
		}
		return s
	}
	dim := func() int { return rng.Intn(40) + 1 }
	alphas := []float64{1, -1, 0.75, 0}
	for trial := 0; trial < 12; trial++ {
		for _, ta := range []Trans{NoTrans, Transpose} {
			for _, tb := range []Trans{NoTrans, Transpose} {
				m, n, k := dim(), dim(), dim()
				ra, ca := m, k
				if ta == Transpose {
					ra, ca = k, m
				}
				rb, cb := k, n
				if tb == Transpose {
					rb, cb = n, k
				}
				lda, ldb, ldc := ra+rng.Intn(3), rb+rng.Intn(3), m+rng.Intn(3)
				a, b := plant(randSlice(rng, lda*ca)), plant(randSlice(rng, ldb*cb))
				alpha, beta := alphas[trial%4], []float64{0, 1, -0.5}[trial%3]
				samePaths(t, fmt.Sprintf("Gemm(%v,%v,%d,%d,%d)", ta, tb, m, n, k), randSlice(rng, ldc*n), func(c []float64) {
					Gemm(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
				})
			}
		}
		for _, uplo := range []Uplo{Lower, Upper} {
			for _, trans := range []Trans{NoTrans, Transpose} {
				n, k := dim(), dim()
				ra, ca := n, k
				if trans == Transpose {
					ra, ca = k, n
				}
				lda, ldc := ra+rng.Intn(3), n+rng.Intn(3)
				a := plant(randSlice(rng, lda*ca))
				alpha, beta := alphas[trial%4], []float64{0, 1, 2}[trial%3]
				samePaths(t, fmt.Sprintf("Syrk(%v,%v,%d,%d)", uplo, trans, n, k), randSlice(rng, ldc*n), func(c []float64) {
					Syrk(uplo, trans, n, k, alpha, a, lda, beta, c, ldc)
				})
			}
		}
		for _, side := range []Side{Left, Right} {
			for _, uplo := range []Uplo{Lower, Upper} {
				for _, trans := range []Trans{NoTrans, Transpose} {
					m, n := dim(), dim()
					na := m
					if side == Right {
						na = n
					}
					lda, ldb := na+rng.Intn(3), m+rng.Intn(3)
					a := plant(randSlice(rng, lda*na))
					for i := 0; i < na; i++ {
						a[i+i*lda] = 2 + math.Abs(rng.NormFloat64())
					}
					b := plant(randSlice(rng, ldb*n))
					alpha := []float64{1, 0.5}[trial%2]
					samePaths(t, fmt.Sprintf("Trsm(%v,%v,%v,%d,%d)", side, uplo, trans, m, n), b, func(x []float64) {
						Trsm(side, uplo, trans, m, n, alpha, a, lda, x, ldb)
					})
				}
			}
		}
		for _, uplo := range []Uplo{Lower, Upper} {
			// Up to 100 so the blocked Lower path (n ≥ 64) runs too.
			n := rng.Intn(100) + 1
			spd := randSPD(rng, n)
			samePaths(t, fmt.Sprintf("Potrf(%v,%d)", uplo, n), spd, func(a []float64) {
				if err := Potrf(uplo, n, a, n); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// guard is the value the tile sweep puts in every cell a kernel must not
// write: padding rows, columns past n and Syrk's upper triangle. It is a
// signalling NaN no input uses, so any arithmetic on it would show too.
var guard = math.Float64frombits(0x7ff000000000dead)

// testKernelsTile sweeps the kernels the register tile runs under: every
// row remainder 1–15 of its 16-row blocks, every column remainder 1–7 of
// its 8-column groups, k from 0 to 130, padded leading dimensions, ±0
// multipliers at every step (a column is skipped where one lands) and a
// few ±Inf, subnormals and NaNs of distinct payload and sign in both
// operands. Each case must give the Go loops' bits on every path and leave
// the guard cells alone.
func testKernelsTile(t *testing.T) {
	if !hostTile {
		t.Skip("the CPU lacks AVX-512F or the OS does not save the ZMM state (or this is a purego or non-amd64 build): the register tile is not exercised")
	}
	rng := rand.New(rand.NewSource(40))
	// operand is an r×c matrix with leading dimension ld: normal values,
	// one in eight ±0, a few specials, guard in the padding.
	operand := func(r, c, ld int) []float64 {
		s := make([]float64, ld*c)
		for j := 0; j < c; j++ {
			for i := 0; i < ld; i++ {
				v := guard
				if i < r {
					switch v = rng.NormFloat64(); rng.Intn(16) {
					case 0:
						v = 0
					case 1:
						v = math.Copysign(0, -1)
					}
				}
				s[i+j*ld] = v
			}
		}
		for n := 0; n < 3; n++ {
			s[rng.Intn(r)+rng.Intn(c)*ld] = specials[rng.Intn(len(specials))]
		}
		return s
	}
	// output is an r×c operand with a column of guards past c.
	output := func(r, c, ld int) []float64 {
		s := operand(r, c, ld)
		for i := 0; i < ld; i++ {
			s = append(s, guard)
		}
		return s
	}
	// expectGuards checks the padding rows of c's first cols columns, the
	// guard column after them and, with upper, the strict upper triangle.
	expectGuards := func(name string, c []float64, ld, r, cols int, upper bool) {
		t.Helper()
		for i, v := range c {
			row, col := i%ld, i/ld
			if (row >= r || col >= cols || upper && row < col) && math.Float64bits(v) != math.Float64bits(guard) {
				t.Fatalf("%s: guard cell (%d,%d) is %x", name, row, col, math.Float64bits(v))
			}
		}
	}
	// rows has every remainder 1–15 of the 16-row blocks alone, and some
	// after one or two full blocks; cols every remainder 1–7 of the
	// 8-column groups after one full group, and some alone or after more.
	rows := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 31, 32, 33, 47}
	cols := []int{1, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 24, 31, 40}
	depths := []int{0, 1, 2, 3, 8, 17, 64, 130}
	alphas := []float64{1, -1, 0.75, math.Float64frombits(0x7ff8000000000042)}
	cases := 0
	for _, m := range rows {
		for _, n := range cols {
			for _, k := range depths {
				cases++
				lda, ldb, ldc := m+rng.Intn(3), n+rng.Intn(3), m+rng.Intn(3)
				a, b := operand(m, max(k, 1), lda), operand(n, max(k, 1), ldb)
				c := output(m, n, ldc)
				alpha, beta := alphas[cases%len(alphas)], []float64{0, 1}[cases%2]
				name := fmt.Sprintf("Gemm(NoTrans,Transpose,%d,%d,%d,α=%v,β=%v)", m, n, k, alpha, beta)
				samePaths(t, name, c, func(c []float64) {
					Gemm(NoTrans, Transpose, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
					expectGuards(name, c, ldc, m, n, false)
				})
			}
		}
	}
	for _, n := range []int{1, 7, 8, 9, 12, 15, 16, 17, 24, 31, 33, 40, 47} {
		for _, k := range depths {
			for _, alpha := range []float64{1, -1} {
				for _, beta := range []float64{0, 1} {
					lda, ldc := n+rng.Intn(3), n+rng.Intn(3)
					a := operand(n, max(k, 1), lda)
					c := output(n, n, ldc)
					for j := 0; j < n; j++ {
						for i := 0; i < j; i++ {
							c[i+j*ldc] = guard
						}
					}
					name := fmt.Sprintf("Syrk(Lower,NoTrans,%d,%d,α=%v,β=%v)", n, k, alpha, beta)
					samePaths(t, name, c, func(c []float64) {
						Syrk(Lower, NoTrans, n, k, alpha, a, lda, beta, c, ldc)
						expectGuards(name, c, ldc, n, n, true)
					})
				}
			}
		}
	}
	for _, m := range rows {
		for _, n := range append(cols, 48, 65) {
			lda, ldb := n+rng.Intn(3), m+rng.Intn(3)
			l := operand(n, n, lda)
			for j := 0; j < n; j++ {
				l[j+j*lda] = 2 + math.Abs(rng.NormFloat64())
			}
			b := output(m, n, ldb)
			alpha := []float64{1, 0.5}[n%2]
			name := fmt.Sprintf("Trsm(Right,Lower,Transpose,%d,%d,α=%v)", m, n, alpha)
			samePaths(t, name, b, func(b []float64) {
				Trsm(Right, Lower, Transpose, m, n, alpha, l, lda, b, ldb)
				expectGuards(name, b, ldb, m, n, false)
			})
		}
	}
}

// BenchmarkAxpy times the assembly kernel against the Go loop at the
// lengths that bracket the cutoff vectorMin and at full block columns.
func BenchmarkAxpy(b *testing.B) {
	for _, n := range []int{2, 4, 8, 16, 64, 512} {
		x, y := make([]float64, n), make([]float64, n)
		for i := range x {
			x[i] = float64(i%7) - 3
		}
		kernels := []struct {
			name string
			f    func(float64, []float64, []float64)
		}{{"vector", axpyVec}, {"go", axpyGo}}
		for _, k := range kernels {
			if k.name == "vector" && !hostVector {
				continue
			}
			b.Run(fmt.Sprintf("%s/n=%d", k.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					k.f(1e-9, x, y)
				}
				b.ReportMetric(float64(2*n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "gflops")
			})
		}
	}
}
