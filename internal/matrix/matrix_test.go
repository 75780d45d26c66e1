package matrix

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
)

// randomSym builds a random symmetric matrix with a guaranteed diagonal.
func randomSym(rng *rand.Rand, n int, density float64) *SparseSym {
	coo := NewCOO(n)
	for j := 0; j < n; j++ {
		coo.Add(j, j, float64(n)+rng.Float64())
		for i := j + 1; i < n; i++ {
			if rng.Float64() < density {
				coo.Add(i, j, rng.NormFloat64())
			}
		}
	}
	s, err := coo.ToSym()
	if err != nil {
		panic(err)
	}
	return s
}

func TestCOOToSymFoldsAndSums(t *testing.T) {
	coo := NewCOO(3)
	coo.Add(0, 0, 4)
	coo.Add(1, 0, 1)
	coo.Add(0, 1, 2) // upper-triangle entry folds onto (1,0) and sums
	coo.Add(2, 2, 5)
	coo.Add(1, 1, 3)
	s, err := coo.ToSym()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := s.At(1, 0); got != 3 {
		t.Fatalf("folded entry = %g, want 3", got)
	}
	if got := s.At(0, 1); got != 3 {
		t.Fatalf("symmetric access = %g, want 3", got)
	}
	if s.Nnz() != 4 {
		t.Fatalf("nnz = %d, want 4", s.Nnz())
	}
}

func TestCOOOutOfRange(t *testing.T) {
	coo := NewCOO(2)
	coo.Add(0, 0, 1)
	coo.Add(5, 0, 1)
	if _, err := coo.ToSym(); err == nil {
		t.Fatal("expected ErrBadTriplet")
	}
}

func TestNnzFull(t *testing.T) {
	coo := NewCOO(3)
	coo.Add(0, 0, 1)
	coo.Add(1, 1, 1)
	coo.Add(2, 2, 1)
	coo.Add(1, 0, -1)
	s, _ := coo.ToSym()
	if got := s.NnzFull(); got != 5 {
		t.Fatalf("NnzFull = %d, want 5", got)
	}
}

func TestMulVecMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := randomSym(rng, 20, 0.3)
	d := s.Dense()
	x := make([]float64, s.N)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y := s.MulVec(x)
	for i := 0; i < s.N; i++ {
		var want float64
		for j := 0; j < s.N; j++ {
			want += d[i+j*s.N] * x[j]
		}
		if math.Abs(y[i]-want) > 1e-10 {
			t.Fatalf("MulVec[%d] = %g, want %g", i, y[i], want)
		}
	}
}

func TestPermuteRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := randomSym(rng, 15, 0.25)
	perm := rng.Perm(s.N)
	p32 := make([]int32, s.N)
	for i, v := range perm {
		p32[i] = int32(v)
	}
	ps, err := s.Permute(p32)
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.Validate(); err != nil {
		t.Fatal(err)
	}
	// B[k,l] must equal A[perm[k], perm[l]].
	for k := 0; k < s.N; k++ {
		for l := 0; l <= k; l++ {
			if got, want := ps.At(k, l), s.At(perm[k], perm[l]); got != want {
				t.Fatalf("permuted (%d,%d) = %g, want %g", k, l, got, want)
			}
		}
	}
	// Inverse permutation restores the original.
	inv := make([]int32, s.N)
	for k, old := range perm {
		inv[old] = int32(k)
	}
	back, err := ps.Permute(inv)
	if err != nil {
		t.Fatal(err)
	}
	if back.Nnz() != s.Nnz() {
		t.Fatalf("round-trip nnz %d != %d", back.Nnz(), s.Nnz())
	}
	for p := range s.Val {
		if s.Val[p] != back.Val[p] || s.RowInd[p] != back.RowInd[p] {
			t.Fatal("round-trip did not restore matrix")
		}
	}
}

// permuteViaCOO is the route Permute used to take — triplets through
// COO.ToSym's comparison sort — kept as the oracle for the counting-sort
// implementation.
func permuteViaCOO(t *testing.T, s *SparseSym, perm []int32) *SparseSym {
	t.Helper()
	inv := make([]int32, s.N)
	for k, old := range perm {
		inv[old] = int32(k)
	}
	coo := NewCOO(s.N)
	for j := 0; j < s.N; j++ {
		for p := s.ColPtr[j]; p < s.ColPtr[j+1]; p++ {
			coo.Add(int(inv[s.RowInd[p]]), int(inv[j]), s.Val[p])
		}
	}
	want, err := coo.ToSym()
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestPermuteMatchesCOOOracle pins Permute bit for bit — ColPtr, RowInd and
// Val — to the COO route on random patterns, including n=1, columns with no
// off-diagonal (or no entry at all), and the identity and reverse orders.
func TestPermuteMatchesCOOOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, n := range []int{1, 2, 7, 40, 120} {
		for _, density := range []float64{0, 0.05, 0.5} {
			s := randomSym(rng, n, density)
			if n > 2 {
				// Drop one column's entries entirely: an empty column.
				j := rng.Intn(n)
				lo, hi := s.ColPtr[j], s.ColPtr[j+1]
				s.RowInd = append(s.RowInd[:lo:lo], s.RowInd[hi:]...)
				s.Val = append(s.Val[:lo:lo], s.Val[hi:]...)
				for c := j + 1; c <= n; c++ {
					s.ColPtr[c] -= hi - lo
				}
			}
			ident, rev, random := make([]int32, n), make([]int32, n), make([]int32, n)
			for i, v := range rng.Perm(n) {
				ident[i], rev[i], random[i] = int32(i), int32(n-1-i), int32(v)
			}
			for name, perm := range map[string][]int32{"identity": ident, "reverse": rev, "random": random} {
				got, err := s.Permute(perm)
				if err != nil {
					t.Fatalf("n=%d density=%g %s: %v", n, density, name, err)
				}
				want := permuteViaCOO(t, s, perm)
				if err := got.Validate(); err != nil {
					t.Fatalf("n=%d density=%g %s: %v", n, density, name, err)
				}
				if len(got.RowInd) != len(want.RowInd) || len(got.Val) != len(want.Val) {
					t.Fatalf("n=%d density=%g %s: nnz %d, want %d", n, density, name, len(got.Val), len(want.Val))
				}
				for c := range want.ColPtr {
					if got.ColPtr[c] != want.ColPtr[c] {
						t.Fatalf("n=%d density=%g %s: ColPtr[%d] = %d, want %d", n, density, name, c, got.ColPtr[c], want.ColPtr[c])
					}
				}
				for p := range want.Val {
					if got.RowInd[p] != want.RowInd[p] || math.Float64bits(got.Val[p]) != math.Float64bits(want.Val[p]) {
						t.Fatalf("n=%d density=%g %s: entry %d = (%d, %x), want (%d, %x)", n, density, name, p,
							got.RowInd[p], math.Float64bits(got.Val[p]), want.RowInd[p], math.Float64bits(want.Val[p]))
					}
				}
			}
		}
	}
}

func TestPermuteRejectsBadPerm(t *testing.T) {
	s := randomSym(rand.New(rand.NewSource(3)), 4, 0.5)
	if _, err := s.Permute([]int32{0, 1, 2}); err == nil {
		t.Fatal("expected length error")
	}
	if _, err := s.Permute([]int32{0, 1, 1, 3}); err == nil {
		t.Fatal("expected duplicate error")
	}
	if _, err := s.Permute([]int32{0, 1, 2, 9}); err == nil {
		t.Fatal("expected range error")
	}
}

func TestShiftDiag(t *testing.T) {
	s := randomSym(rand.New(rand.NewSource(4)), 8, 0.3)
	sh, err := s.ShiftDiag(2.5)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < s.N; j++ {
		if math.Abs(sh.At(j, j)-s.At(j, j)-2.5) > 1e-12 {
			t.Fatalf("diagonal %d not shifted", j)
		}
		for i := j + 1; i < s.N; i++ {
			if sh.At(i, j) != s.At(i, j) {
				t.Fatalf("off-diagonal (%d,%d) changed", i, j)
			}
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	s := randomSym(rand.New(rand.NewSource(5)), 6, 0.5)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := s.Clone()
	bad.RowInd[0] = int32(bad.N + 3)
	if err := bad.Validate(); err == nil {
		t.Fatal("expected out-of-range detection")
	}
	bad2 := s.Clone()
	if len(bad2.ColPtr) > 2 {
		bad2.ColPtr[1] = bad2.ColPtr[0] - 1
	}
	if err := bad2.Validate(); err == nil {
		t.Fatal("expected monotonicity detection")
	}
}

func TestMatrixMarketRoundTrip(t *testing.T) {
	s := randomSym(rand.New(rand.NewSource(6)), 12, 0.3)
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != s.N || got.Nnz() != s.Nnz() {
		t.Fatalf("shape mismatch: n=%d nnz=%d", got.N, got.Nnz())
	}
	for p := range s.Val {
		if s.Val[p] != got.Val[p] || s.RowInd[p] != got.RowInd[p] {
			t.Fatal("values not preserved")
		}
	}
}

func TestMatrixMarketPattern(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate pattern symmetric
% a comment
3 3 4
1 1
2 1
2 2
3 3
`
	s, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if s.At(0, 0) != 2 { // 1 + deg 1
		t.Fatalf("pattern diagonal = %g", s.At(0, 0))
	}
	if s.At(1, 0) != -1 {
		t.Fatalf("pattern off-diagonal = %g", s.At(1, 0))
	}
}

func TestMatrixMarketErrors(t *testing.T) {
	cases := []string{
		"",
		"%%MatrixMarket matrix array real symmetric\n2 2\n1\n2\n3\n",
		"%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n1 1 1.0\n",
		"%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 1.0\n",
		"%%MatrixMarket matrix coordinate complex symmetric\n2 2 1\n1 1 1 0\n",
	}
	for i, c := range cases {
		if _, err := ReadMatrixMarket(strings.NewReader(c)); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

func TestRutherfordBoeingRoundTrip(t *testing.T) {
	s := randomSym(rand.New(rand.NewSource(7)), 10, 0.4)
	var buf bytes.Buffer
	if err := WriteRutherfordBoeing(&buf, s, "test matrix"); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRutherfordBoeing(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != s.N || got.Nnz() != s.Nnz() {
		t.Fatalf("shape mismatch: n=%d nnz=%d want n=%d nnz=%d", got.N, got.Nnz(), s.N, s.Nnz())
	}
	for p := range s.Val {
		if math.Abs(s.Val[p]-got.Val[p]) > 1e-14 || s.RowInd[p] != got.RowInd[p] {
			t.Fatal("values not preserved")
		}
	}
}

func TestRutherfordBoeingRejectsUnsymmetric(t *testing.T) {
	in := "title\n 1 1 1 1\nrua 2 2 1 0\n(fmt) (fmt) (fmt)\n1\n2\n2\n1\n1.0\n"
	if _, err := ReadRutherfordBoeing(strings.NewReader(in)); err == nil {
		t.Fatal("expected unsupported-type error for rua")
	}
}

// TestReadFileChoosesReaderBySuffix writes the same matrix under every file
// name the CLIs accept, in the format the name promises; the wrong reader
// would reject the content.
func TestReadFileChoosesReaderBySuffix(t *testing.T) {
	s := randomSym(rand.New(rand.NewSource(8)), 9, 0.4)
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		rb   bool
	}{
		{"m.mtx", false}, {"m.txt", false}, {"m", false}, {"rsa", false},
		{"m.rb", true}, {"m.rsa", true}, {"m.rua", true}, {"m.psa", true},
	} {
		var buf bytes.Buffer
		if tc.rb {
			if err := WriteRutherfordBoeing(&buf, s, tc.name); err != nil {
				t.Fatal(err)
			}
		} else if err := WriteMatrixMarket(&buf, s); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, tc.name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFile(path)
		if err != nil {
			t.Errorf("%s (rutherford-boeing=%v): %v", tc.name, tc.rb, err)
			continue
		}
		if got.N != s.N || got.Nnz() != s.Nnz() {
			t.Errorf("%s: n=%d nnz=%d, want n=%d nnz=%d", tc.name, got.N, got.Nnz(), s.N, s.Nnz())
		}
	}
	if _, err := ReadFile(filepath.Join(dir, "absent.mtx")); err == nil {
		t.Error("expected an error for a missing file")
	}
}

func TestNormFro(t *testing.T) {
	coo := NewCOO(2)
	coo.Add(0, 0, 3)
	coo.Add(1, 1, 4)
	coo.Add(1, 0, 1)
	s, _ := coo.ToSym()
	want := math.Sqrt(9 + 16 + 2)
	if got := s.NormFro(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("NormFro = %g, want %g", got, want)
	}
}

// Property: MulVec of a symmetric matrix satisfies xᵀ(Ay) == yᵀ(Ax).
func TestSymmetryProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%20) + 2
		rng := rand.New(rand.NewSource(seed))
		s := randomSym(rng, n, 0.3)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i], y[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		ax, ay := s.MulVec(x), s.MulVec(y)
		var xay, yax float64
		for i := 0; i < n; i++ {
			xay += x[i] * ay[i]
			yax += y[i] * ax[i]
		}
		return math.Abs(xay-yax) < 1e-8*(1+math.Abs(xay))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: permutation preserves the Frobenius norm and diagonal multiset.
func TestPermuteInvariantsProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%15) + 2
		rng := rand.New(rand.NewSource(seed))
		s := randomSym(rng, n, 0.4)
		perm := rng.Perm(n)
		p32 := make([]int32, n)
		for i, v := range perm {
			p32[i] = int32(v)
		}
		ps, err := s.Permute(p32)
		if err != nil {
			return false
		}
		if math.Abs(ps.NormFro()-s.NormFro()) > 1e-9 {
			return false
		}
		d1, d2 := s.Diag(), ps.Diag()
		var s1, s2 float64
		for i := 0; i < n; i++ {
			s1 += d1[i]
			s2 += d2[i]
		}
		return math.Abs(s1-s2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Readers must reject malformed input with errors, never panics, for a
// corpus of truncations and corruptions of valid files.
func TestReadersRejectCorruption(t *testing.T) {
	s := randomSym(rand.New(rand.NewSource(8)), 8, 0.4)
	var mm, rb bytes.Buffer
	if err := WriteMatrixMarket(&mm, s); err != nil {
		t.Fatal(err)
	}
	if err := WriteRutherfordBoeing(&rb, s, "x"); err != nil {
		t.Fatal(err)
	}
	corpus := [][]byte{}
	for _, valid := range [][]byte{mm.Bytes(), rb.Bytes()} {
		for _, frac := range []int{1, 2, 3, 5, 10} {
			corpus = append(corpus, valid[:len(valid)/frac])
		}
		// Bit-flip style corruptions of the header region.
		for i := 0; i < 20 && i < len(valid); i += 3 {
			c := append([]byte(nil), valid...)
			c[i] = '~'
			corpus = append(corpus, c)
		}
	}
	corpus = append(corpus, []byte("%%MatrixMarket matrix coordinate real symmetric\n-3 -3 1\n1 1 1\n"))
	corpus = append(corpus, []byte("t\n1 1 1 1\nrsa 4 4 99999999\n(f)(f)(f)\n1\n"))
	for i, c := range corpus {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("case %d: reader panicked: %v", i, r)
				}
			}()
			m1, err1 := ReadMatrixMarket(bytes.NewReader(c))
			if err1 == nil && m1 != nil {
				if err := m1.Validate(); err != nil {
					t.Fatalf("case %d: MatrixMarket accepted invalid matrix: %v", i, err)
				}
			}
			m2, err2 := ReadRutherfordBoeing(bytes.NewReader(c))
			if err2 == nil && m2 != nil {
				if err := m2.Validate(); err != nil {
					t.Fatalf("case %d: RutherfordBoeing accepted invalid matrix: %v", i, err)
				}
			}
		}()
	}
}
