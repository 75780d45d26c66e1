package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"sympack/internal/gen"
	"sympack/internal/matrix"
)

func TestFactorSaveLoadRoundTrip(t *testing.T) {
	a := gen.Bone3D(5, 5, 5, 0.3, 9)
	f, err := Factorize(a, Options{Ranks: 3})
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
	// Structure equality.
	if g.St.N != f.St.N || g.St.NumSupernodes() != f.St.NumSupernodes() || g.St.NumBlocks() != f.St.NumBlocks() {
		t.Fatal("structure shape changed")
	}
	for bid := range f.Data {
		for i := range f.Data[bid] {
			if f.Data[bid][i] != g.Data[bid][i] {
				t.Fatalf("block %d data changed at %d", bid, i)
			}
		}
	}
	// The loaded factor must solve.
	rng := rand.New(rand.NewSource(10))
	b := make([]float64, a.N)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x1, err := f.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	x2, err := g.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x1 {
		if x1[i] != x2[i] {
			t.Fatalf("loaded factor solves differently at %d", i)
		}
	}
	// The loaded factor must run distributed solves and selected inversion.
	xd, err := g.SolveDistributed(b)
	if err != nil {
		t.Fatal(err)
	}
	if r := ResidualNorm(a, xd, b); r > 1e-10 {
		t.Fatalf("loaded distributed solve residual %g", r)
	}
	si, err := g.SelectedInverse()
	if err != nil {
		t.Fatal(err)
	}
	siRef, err := f.SelectedInverse()
	if err != nil {
		t.Fatal(err)
	}
	d1, d2 := siRef.Diag(), si.Diag()
	for i := range d1 {
		if math.Abs(d1[i]-d2[i]) > 1e-14 {
			t.Fatalf("selected inverse diag differs at %d", i)
		}
	}
}

func TestLoadFactorRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("not a factor"),
		make([]byte, 40), // zero magic
	}
	for i, c := range cases {
		if _, err := LoadFactor(bytes.NewReader(c)); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
	// Truncated valid stream.
	a := gen.Laplace2D(5, 5)
	f, err := Factorize(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := LoadFactor(bytes.NewReader(trunc)); err == nil {
		t.Fatal("expected truncation error")
	}
}

// TestLoadFactorTruncatedNeverPanics sweeps every truncation boundary of a
// valid stream through LoadFactor: each prefix must produce a wrapped error
// (usually io.ErrUnexpectedEOF), never a panic and never a Factor.
func TestLoadFactorTruncatedNeverPanics(t *testing.T) {
	a := gen.Laplace2D(6, 6)
	f, err := Factorize(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	sawWrappedEOF := false
	for cut := 0; cut < len(data); cut++ {
		g, err := LoadFactor(bytes.NewReader(data[:cut]))
		if err == nil || g != nil {
			t.Fatalf("truncation at %d/%d: got factor %v, err %v", cut, len(data), g, err)
		}
		if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
			sawWrappedEOF = true
		}
	}
	if !sawWrappedEOF {
		t.Fatal("no truncation error wrapped the io sentinel; errors must stay branchable")
	}
}

// TestLoadFactorCorruptNeverPanics flips bytes across the stream and patches
// the structural fields with hostile values; every load must either fail
// with an error or (for benign numeric flips) return a well-formed factor —
// never panic, and never return a factor whose solve panics.
func TestLoadFactorCorruptNeverPanics(t *testing.T) {
	a := gen.Laplace2D(6, 6)
	f, err := Factorize(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	pristine := buf.Bytes()
	b := make([]float64, a.N)
	for i := range b {
		b[i] = 1
	}
	tryLoad := func(data []byte) {
		g, err := LoadFactor(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A load that slipped through must still be solvable without
		// panicking (the extent validation guarantees in-range slicing).
		_, _ = g.Solve(b)
	}

	// Single-byte corruption at deterministic positions across the stream.
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 500; i++ {
		data := append([]byte(nil), pristine...)
		pos := rng.Intn(len(data))
		data[pos] ^= byte(1 + rng.Intn(255))
		tryLoad(data)
	}

	// Hostile structural fields. Offsets: 5×uint64 header, then the
	// n-entry int32 permutation, then per-supernode (first,last,nrows)
	// uint64 triples.
	n := a.N
	snodeOff := 40 + 4*n
	patch := func(off int, v uint64) []byte {
		data := append([]byte(nil), pristine...)
		binary.LittleEndian.PutUint64(data[off:], v)
		return data
	}
	hostile := []struct {
		name string
		data []byte
	}{
		{"bad magic", patch(0, 0xdeadbeef)},
		{"bad version", patch(8, 99)},
		{"huge n", patch(16, 1<<40)},
		{"nsn > n", patch(24, uint64(n+1))},
		{"nblk < nsn", patch(32, 0)},
		{"huge nblk", patch(32, 1<<40)},
		{"snode range inverted", patch(snodeOff, 1<<20)},
		{"huge snode row count", patch(snodeOff+16, 1<<40)},
		{"zero snode row count", patch(snodeOff+16, 0)},
	}
	for _, h := range hostile {
		if g, err := LoadFactor(bytes.NewReader(h.data)); err == nil {
			t.Fatalf("%s: load succeeded (%v), want error", h.name, g)
		}
	}
}

// factorFile encodes a factor file field by field, for inputs Save cannot
// produce: n, the supernodes as (first, last, rows), the blocks as
// (snode, rowSn, rowOff, nRows), and the blocks' data.
func factorFile(n int, snodes [][3]any, blocks [][4]int32, data [][]float64) []byte {
	var buf bytes.Buffer
	put := func(v any) { _ = binary.Write(&buf, binary.LittleEndian, v) }
	put([5]uint64{uint64(factorMagic), uint64(factorVersion), uint64(n), uint64(len(snodes)), uint64(len(blocks))})
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	put(perm)
	for _, sn := range snodes {
		rows := sn[2].([]int32)
		put([3]uint64{uint64(sn[0].(int)), uint64(sn[1].(int)), uint64(len(rows))})
		put(rows)
	}
	for _, b := range blocks {
		put(b)
	}
	for _, d := range data {
		put(uint64(len(d)))
		put(d)
	}
	return buf.Bytes()
}

// TestLoadFactorRequiresDiagonalFirst: the solve takes each supernode's
// first block for its full diagonal, so a file whose supernode lacks one is
// rejected. A 2×2 file whose one supernode's only block had no rows used to
// load, and its Solve panicked with an index out of range.
func TestLoadFactorRequiresDiagonalFirst(t *testing.T) {
	whole := [][3]any{{0, 1, []int32{0, 1}}}
	split := [][3]any{{0, 0, []int32{0, 1}}, {1, 1, []int32{1}}}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty diagonal", factorFile(2, whole, [][4]int32{{0, 0, 0, 0}}, [][]float64{{}})},
		{"short diagonal", factorFile(2, whole, [][4]int32{{0, 0, 0, 1}}, [][]float64{{1, 1}})},
		{"offset diagonal", factorFile(2, split,
			[][4]int32{{0, 0, 1, 1}, {1, 1, 0, 1}}, [][]float64{{1}, {1}})},
		{"diagonal of another supernode", factorFile(2, split,
			[][4]int32{{0, 1, 0, 1}, {1, 1, 0, 1}}, [][]float64{{1}, {1}})},
		{"supernode without blocks", factorFile(2, split,
			[][4]int32{{0, 0, 0, 1}, {0, 1, 1, 1}}, [][]float64{{1}, {1}})},
	}
	for _, c := range cases {
		if _, err := LoadFactor(bytes.NewReader(c.data)); err == nil {
			t.Errorf("%s: load succeeded, want error", c.name)
		}
	}
	// The same encoder's well-formed file: L = [2 0; 1 1], so L·Lᵀ = [4 2; 2 2] and x = (0, 1/2).
	good := factorFile(2, split, [][4]int32{{0, 0, 0, 1}, {0, 1, 1, 1}, {1, 1, 0, 1}},
		[][]float64{{2}, {1}, {1}})
	g, err := LoadFactor(bytes.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	x, err := g.Solve([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{0, 0.5}; x[0] != want[0] || x[1] != want[1] {
		t.Fatalf("x = %v, want %v", x, want)
	}
}

// TestLoadFactorBoundedByInput: a 40-byte header declaring the largest n,
// and as many blocks, is an error that allocates less than 1 MB. The
// arrays the counts size grow as their values are read.
func TestLoadFactorBoundedByInput(t *testing.T) {
	const huge = 1<<31 - 1
	var buf bytes.Buffer
	_ = binary.Write(&buf, binary.LittleEndian, [5]uint64{uint64(factorMagic), uint64(factorVersion), huge, 1, huge})
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, err := LoadFactor(&buf)
	runtime.ReadMemStats(&m1)
	if err == nil {
		t.Fatal("load of a bare header succeeded")
	}
	if b := m1.TotalAlloc - m0.TotalAlloc; b >= 1<<20 {
		t.Errorf("allocated %d bytes, want < 1 MB", b)
	}
}

// FuzzLoadFactor mutates saved factors: LoadFactor returns an error or a
// factor whose Solve of a ones vector returns, never a panic.
func FuzzLoadFactor(f *testing.F) {
	for _, opt := range []struct {
		a     *matrix.SparseSym
		ranks int
	}{{gen.Laplace2D(3, 3), 1}, {gen.Laplace3D(3, 3, 2), 2}} {
		fac, err := Factorize(opt.a, Options{Ranks: opt.ranks})
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := fac.Save(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := LoadFactor(bytes.NewReader(data))
		if err != nil {
			return
		}
		b := make([]float64, g.St.N)
		for i := range b {
			b[i] = 1
		}
		if _, err := g.Solve(b); err != nil {
			t.Fatalf("loaded factor does not solve: %v", err)
		}
	})
}
