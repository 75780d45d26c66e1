package core

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"sympack/internal/gen"
	"sympack/internal/matrix"
	"sympack/internal/ordering"
	"sympack/internal/symbolic"
)

// withoutEntry returns a copy of m without its stored entry x.
func withoutEntry(m *matrix.SparseSym, x int32) *matrix.SparseSym {
	out := &matrix.SparseSym{N: m.N, ColPtr: slices.Clone(m.ColPtr)}
	out.RowInd = slices.Delete(slices.Clone(m.RowInd), int(x), int(x)+1)
	out.Val = slices.Delete(slices.Clone(m.Val), int(x), int(x)+1)
	for j := range m.N {
		if m.ColPtr[j+1] > x {
			out.ColPtr[j+1]--
		}
	}
	return out
}

// TestFactorizeAnalyzedPatternMismatch: FactorizeAnalyzed takes the
// permuted matrix itself, so its pattern is the one it factors; what it
// must refuse, with an error and no panic, is a matrix the structure cannot
// hold. An entry added outside the structure is that case (the
// outside-structure message, as TestAssembleEntryOutsideStructure pins). A
// removed entry leaves a matrix the structure holds, so the one removed is
// a diagonal, which every SPD matrix stores: the factorization must fail
// at that pivot. Malformed column pointers and a wrong order are errors
// too.
func TestFactorizeAnalyzedPatternMismatch(t *testing.T) {
	st, pa, err := symbolic.Analyze(gen.Laplace3D(5, 5, 4), ordering.NestedDissection, symbolic.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// The diagonal of the last column, which a Cholesky pivot reads last.
	diag := pa.ColPtr[pa.N-1]
	short := pa.Clone()
	short.ColPtr = short.ColPtr[:pa.N]
	bent := pa.Clone()
	bent.ColPtr[3], bent.ColPtr[4] = bent.ColPtr[4], bent.ColPtr[3]
	// The first row below column 0's supernode that its row list lacks.
	j, r := int32(0), int32(-1)
	for c := int32(1); c < int32(pa.N) && r < 0; c++ {
		if !slices.Contains(st.Snodes[st.SnOf[j]].Rows, c) {
			r = c
		}
	}
	added := pa.Clone()
	added.RowInd = slices.Insert(added.RowInd, int(added.ColPtr[1]), r)
	added.Val = slices.Insert(added.Val, int(added.ColPtr[1]), 0.5)
	for c := 1; c <= pa.N; c++ {
		added.ColPtr[c]++
	}
	for _, c := range []struct {
		name, want string
		m          *matrix.SparseSym
	}{
		{"removed diagonal", "not positive definite", withoutEntry(pa, diag)},
		{"added outside", "outside the symbolic structure", added},
		{"short column pointers", "stored entries", short},
		{"decreasing column pointers", "decrease", bent},
		{"order", "stored entries", gen.Laplace2D(4, 4)},
	} {
		for _, ranks := range []int{1, 3} {
			f, err := FactorizeAnalyzed(st, c.m, Options{Ranks: ranks, Workers: 1})
			if err == nil || f != nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s, %d ranks: factor %v, err %v; want an error saying %q", c.name, ranks, f != nil, err, c.want)
			}
		}
	}
}

// TestPlanLayoutForOtherShape: a plan built for one rank count factors for
// another through a layout derived for the call, and the factor is the
// cold one's.
func TestPlanLayoutForOtherShape(t *testing.T) {
	a := gen.Thermal2D(40, 40, 3, 2)
	p, err := Analyze(a, Options{Ranks: 1})
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Ranks: 3, Workers: 1, Mapping: MapSubtree}
	if p.layoutFor(opt.withDefaults()) == p.lay {
		t.Fatal("a layout for 3 ranks under MapSubtree is the 1-rank plan's")
	}
	save := func(f *Factor, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := f.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(save(p.Factorize(a, opt)), save(Factorize(a, opt))) {
		t.Error("the factor through another shape's plan differs from the cold one")
	}
}
