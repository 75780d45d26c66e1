package blas

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// hostVector records whether this build and CPU run the assembly kernels.
// The tests only switch useVector on where it was on at init: elsewhere the
// assembly is absent or would fault.
var hostVector = useVector

// withVector runs f with the vector path on or off and restores it after.
func withVector(on bool, f func()) {
	old := useVector
	useVector = on && hostVector
	defer func() { useVector = old }()
	f()
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
// multipliers, once on each path, and requires identical bits.
func TestKernelsVectorEqualsGo(t *testing.T) {
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
	check := func(name string, out []float64, run func(out []float64)) {
		t.Helper()
		vec := append([]float64(nil), out...)
		scalar := append([]float64(nil), out...)
		withVector(true, func() { run(vec) })
		withVector(false, func() { run(scalar) })
		if i := sameBits(vec, scalar); i >= 0 {
			t.Fatalf("%s: element %d is %x on the vector path, %x in Go", name, i,
				math.Float64bits(vec[i]), math.Float64bits(scalar[i]))
		}
	}
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
				check(fmt.Sprintf("Gemm(%v,%v,%d,%d,%d)", ta, tb, m, n, k), randSlice(rng, ldc*n), func(c []float64) {
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
				check(fmt.Sprintf("Syrk(%v,%v,%d,%d)", uplo, trans, n, k), randSlice(rng, ldc*n), func(c []float64) {
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
					check(fmt.Sprintf("Trsm(%v,%v,%v,%d,%d)", side, uplo, trans, m, n), b, func(x []float64) {
						Trsm(side, uplo, trans, m, n, alpha, a, lda, x, ldb)
					})
				}
			}
		}
		for _, uplo := range []Uplo{Lower, Upper} {
			// Up to 100 so the blocked Lower path (n ≥ 64) runs too.
			n := rng.Intn(100) + 1
			spd := randSPD(rng, n)
			check(fmt.Sprintf("Potrf(%v,%d)", uplo, n), spd, func(a []float64) {
				if err := Potrf(uplo, n, a, n); err != nil {
					t.Fatal(err)
				}
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
