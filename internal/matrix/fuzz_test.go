package matrix

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// malformedMM are Matrix Market inputs whose size line a reader must
// reject with ErrFormat: negative sizes, sizes past the int32 index type,
// and a negative entry count.
var malformedMM = []string{
	"%%MatrixMarket matrix coordinate real symmetric\n-1 -1 0\n",
	"%%MatrixMarket matrix coordinate real symmetric\n-3 -3 0\n",
	"%%MatrixMarket matrix coordinate real symmetric\n4294967296 4294967296 0\n",
	"%%MatrixMarket matrix coordinate real symmetric\n2147483647 2147483647 0\n",
	"%%MatrixMarket matrix coordinate real symmetric\n2 2 -1\n1 1 1.0\n",
}

// malformedRB are Rutherford-Boeing inputs with column pointers that do
// not start at 1, decrease, or run past nnz+1, and with sizes past int32.
var malformedRB = []string{
	"t\n1 1 1 1\nrsa 2 2 2 0\n(f)(f)(f)\n0\n2\n3\n1\n2\n1.0\n1.0\n",
	"t\n1 1 1 1\nrsa 2 2 2 0\n(f)(f)(f)\n1\n3\n2\n1\n2\n1.0\n1.0\n",
	"t\n1 1 1 1\nrsa 2 2 2 0\n(f)(f)(f)\n1\n2\n9\n1\n2\n1.0\n1.0\n",
	"t\n1 1 1 1\nrsa 1 1 1 0\n(f)(f)(f)\n1\n5\n1\n1.0\n",
	"t\n1 1 1 1\nrsa 4294967296 4294967296 0 0\n(f)(f)(f)\n1\n",
}

// TestMatrixMarketRejectsBadSizes pins that a size line outside the index
// type is a format error, not a panic or a silently accepted file.
func TestMatrixMarketRejectsBadSizes(t *testing.T) {
	for i, in := range malformedMM {
		if _, err := ReadMatrixMarket(bytes.NewReader([]byte(in))); !errors.Is(err, ErrFormat) {
			t.Errorf("case %d: err = %v, want ErrFormat", i, err)
		}
	}
}

// TestRutherfordBoeingRejectsBadPointers pins that malformed column
// pointers and oversized headers are format errors, not index panics.
func TestRutherfordBoeingRejectsBadPointers(t *testing.T) {
	for i, in := range malformedRB {
		if _, err := ReadRutherfordBoeing(bytes.NewReader([]byte(in))); !errors.Is(err, ErrFormat) {
			t.Errorf("case %d: err = %v, want ErrFormat", i, err)
		}
	}
}

// TestValidateRejectsBadLengths covers arrays whose lengths disagree with
// N and with each other: Validate checks them before indexing anything.
func TestValidateRejectsBadLengths(t *testing.T) {
	cases := []*SparseSym{
		{N: -1, ColPtr: []int32{}, RowInd: []int32{}, Val: []float64{}},
		{N: 1, ColPtr: []int32{0, 5}, RowInd: []int32{}, Val: []float64{}},
		{N: 2, ColPtr: []int32{0, 3, 1}, RowInd: []int32{0}, Val: []float64{1}},
		{N: 1, ColPtr: []int32{0, 1}, RowInd: []int32{0}, Val: nil},
	}
	for i, s := range cases {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, s)
		}
	}
}

// hugeDeclared are inputs of a few dozen bytes that declare a 50 000 000 ×
// 50 000 000 matrix: the Matrix Market one with no entries (68 bytes), and
// a Rutherford-Boeing one whose header promises one entry per column.
// Before the readers were bounded by their input they allocated 201 MB and
// more from the declaration alone.
var hugeDeclared = []string{
	"%%MatrixMarket matrix coordinate real symmetric\n50000000 50000000 0\n",
	"t\n1 1 1 1\nrsa 50000000 50000000 50000000 0\n(f)(f)(f)\n1\n2\n3\n",
}

// TestReadersBoundedByInput: reading an input that declares a huge matrix
// is a format error and allocates less than 1 MB, whatever it declares.
func TestReadersBoundedByInput(t *testing.T) {
	if len(hugeDeclared[0]) != 68 {
		t.Fatalf("the Matrix Market input is %d bytes, want 68", len(hugeDeclared[0]))
	}
	readers := []func([]byte) (*SparseSym, error){
		func(b []byte) (*SparseSym, error) { return ReadMatrixMarket(bytes.NewReader(b)) },
		func(b []byte) (*SparseSym, error) { return ReadRutherfordBoeing(bytes.NewReader(b)) },
	}
	for i, in := range hugeDeclared {
		for r, read := range readers {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			_, err := read([]byte(in))
			runtime.ReadMemStats(&m1)
			if !errors.Is(err, ErrFormat) {
				t.Errorf("input %d, reader %d: err = %v, want ErrFormat", i, r, err)
			}
			if b := m1.TotalAlloc - m0.TotalAlloc; b >= 1<<20 {
				t.Errorf("input %d, reader %d: allocated %d bytes, want < 1 MB", i, r, b)
			}
		}
	}
}

// checkReader is the fuzz property of one reader: it never panics, and a
// matrix it accepts is valid and reads back identical after writing.
func checkReader(t *testing.T, data []byte, read func([]byte) (*SparseSym, error), write func(*SparseSym) []byte) {
	s, err := read(data)
	if err != nil {
		return
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("accepted an invalid matrix: %v", err)
	}
	back, err := read(write(s))
	if err != nil {
		t.Fatalf("re-reading the written matrix: %v", err)
	}
	if back.N != s.N || !equalInt32(back.ColPtr, s.ColPtr) || !equalInt32(back.RowInd, s.RowInd) {
		t.Fatalf("pattern changed on round trip")
	}
	for p, v := range s.Val {
		if w := back.Val[p]; w != v && !(math.IsNaN(v) && math.IsNaN(w)) {
			t.Fatalf("value %d changed on round trip: %g → %g", p, v, w)
		}
	}
}

func equalInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func FuzzReadMatrixMarket(f *testing.F) {
	var valid bytes.Buffer
	if err := WriteMatrixMarket(&valid, randomSym(rand.New(rand.NewSource(9)), 5, 0.5)); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	for _, in := range append(malformedMM, hugeDeclared...) {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkReader(t, data,
			func(b []byte) (*SparseSym, error) { return ReadMatrixMarket(bytes.NewReader(b)) },
			func(s *SparseSym) []byte {
				var buf bytes.Buffer
				if err := WriteMatrixMarket(&buf, s); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			})
	})
}

func FuzzReadRutherfordBoeing(f *testing.F) {
	var valid bytes.Buffer
	if err := WriteRutherfordBoeing(&valid, randomSym(rand.New(rand.NewSource(10)), 5, 0.5), "seed"); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	for _, in := range append(malformedRB, hugeDeclared...) {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkReader(t, data,
			func(b []byte) (*SparseSym, error) { return ReadRutherfordBoeing(bytes.NewReader(b)) },
			func(s *SparseSym) []byte {
				var buf bytes.Buffer
				if err := WriteRutherfordBoeing(&buf, s, "fuzz"); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			})
	})
}
