package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"sympack/internal/gen"
	"sympack/internal/matrix"
	"sympack/internal/ordering"
	"sympack/internal/symbolic"
)

// bruteRelIndex is relIndex by a linear search per row.
func bruteRelIndex(sub, super []int32) ([]int, bool) {
	pos, all := make([]int, len(sub)), true
	for x, r := range sub {
		pos[x] = slices.Index(super, r)
		all = all && pos[x] >= 0
	}
	return pos, all
}

func checkRelIndex(t *testing.T, name string, sub, super []int32) {
	t.Helper()
	want, wantAll := bruteRelIndex(sub, super)
	got := make([]int, len(sub))
	for i := range got {
		got[i] = -7 // every entry must be written
	}
	if all := relIndex(got, sub, super); all != wantAll || !slices.Equal(got, want) {
		t.Errorf("%s: relIndex(%v in %v) = %v, %v; want %v, %v", name, sub, super, got, all, want, wantAll)
	}
}

// TestRelIndex compares relIndex with a linear search: the edge cases
// by name, then random ascending lists with rows kept, skipped and
// missing in runs of every length.
func TestRelIndex(t *testing.T) {
	seq := func(lo, hi int32) []int32 {
		var s []int32
		for r := lo; r < hi; r++ {
			s = append(s, r)
		}
		return s
	}
	super := []int32{2, 3, 5, 8, 9, 10, 14}
	for _, c := range []struct {
		name       string
		sub, super []int32
	}{
		{"both empty", nil, nil},
		{"empty sub", nil, super},
		{"empty super", []int32{1, 4}, nil},
		{"sub == super", super, super},
		{"missing first", []int32{1, 3, 5}, super},
		{"missing middle", []int32{3, 6, 9}, super},
		{"missing last", []int32{2, 10, 15}, super},
		{"all missing", []int32{0, 4, 11, 20}, super},
		{"skips only", []int32{2, 9, 14}, super},
		{"long run", seq(100, 400), seq(0, 500)},
		{"long run, one gap", seq(100, 400), append(seq(0, 250), seq(251, 500)...)},
	} {
		checkRelIndex(t, c.name, c.sub, c.super)
	}
	rng := rand.New(rand.NewSource(1))
	for i := range 2000 {
		var sub, super []int32
		r := int32(0)
		for len(super) < 1+rng.Intn(64) {
			// Runs of each kind: in both lists, in super only, in sub only.
			kind, run := rng.Intn(3), 1+rng.Intn(8)
			for range run {
				switch kind {
				case 0:
					sub, super = append(sub, r), append(super, r)
				case 1:
					super = append(super, r)
				default:
					sub = append(sub, r)
				}
				r += 1 + int32(rng.Intn(2))
			}
		}
		checkRelIndex(t, fmt.Sprintf("random %d", i), sub, super)
	}
}

// TestPlaceRowsMissingRow: a contribution row its target lacks is
// discarded (position −1) in an incomplete structure and panics in a
// complete one.
func TestPlaceRowsMissingRow(t *testing.T) {
	sub, super := []int32{1, 2, 4}, []int32{1, 3, 4}
	pos := make([]int, len(sub))
	ic := &engine{st: &symbolic.Structure{Incomplete: true}}
	ic.placeRows(pos, sub, super)
	if want := []int{0, -1, 2}; !slices.Equal(pos, want) {
		t.Fatalf("incomplete: positions %v, want %v", pos, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("complete structure: a missing contribution row did not panic")
		}
	}()
	(&engine{st: &symbolic.Structure{}}).placeRows(pos, sub, super)
}

// TestAssembleEntryOutsideStructure: a matrix entry the structure has no
// place for fails the factorization, at one rank, where small subtrees
// assemble into trapezoids, and at three, where every supernode assembles
// into its blocks.
func TestAssembleEntryOutsideStructure(t *testing.T) {
	st, pa, err := symbolic.Analyze(gen.Laplace2D(6, 6), ordering.NestedDissection, symbolic.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// The first (row, column) pair below the diagonal that column's
	// supernode has no row for.
	r, j := int32(-1), int32(0)
	for ; j < int32(pa.N) && r < 0; j++ {
		for c := j + 1; c < int32(pa.N); c++ {
			if !slices.Contains(st.Snodes[st.SnOf[j]].Rows, c) {
				r = c
				break
			}
		}
	}
	j--
	if r < 0 {
		t.Fatal("the structure is dense; no entry lies outside it")
	}
	bad := &matrix.SparseSym{N: pa.N, ColPtr: slices.Clone(pa.ColPtr)}
	for c := int32(0); c < int32(pa.N); c++ {
		rows := pa.RowInd[pa.ColPtr[c]:pa.ColPtr[c+1]]
		vals := pa.Val[pa.ColPtr[c]:pa.ColPtr[c+1]]
		i, _ := slices.BinarySearch(rows, r)
		for x := range rows {
			if c == j && x == i {
				bad.RowInd, bad.Val = append(bad.RowInd, r), append(bad.Val, 0.5)
			}
			bad.RowInd, bad.Val = append(bad.RowInd, rows[x]), append(bad.Val, vals[x])
		}
		if c == j && i == len(rows) {
			bad.RowInd, bad.Val = append(bad.RowInd, r), append(bad.Val, 0.5)
		}
		if c >= j {
			bad.ColPtr[c+1]++
		}
	}
	for _, ranks := range []int{1, 3} {
		_, err = FactorizeAnalyzed(st, bad, Options{Ranks: ranks, Workers: 1})
		if err == nil || !strings.Contains(err.Error(), "outside the symbolic structure") {
			t.Errorf("%d ranks, entry (%d,%d) outside the structure: err = %v, want a structure failure", ranks, r, j, err)
		}
	}
}
