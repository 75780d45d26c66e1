package sympack

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// savedBits factors a with opt, cold or through an analysis, and returns the
// saved factor's bytes.
func savedBits(t *testing.T, factor func() (*Factor, error)) []byte {
	t.Helper()
	f, err := factor()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPlanReuseMatchesCold is the analyse-once, factor-many contract: one
// Analyze, then Analysis.Factorize of four shifted matrices, each of whose
// factors must be the bits of a cold Factorize of the same matrix, at 1×1,
// 1×2 and 4×1 under each formulation.
func TestPlanReuseMatchesCold(t *testing.T) {
	a := Laplace3D(7, 6, 5)
	for _, shape := range []struct{ ranks, workers int }{{1, 1}, {1, 2}, {4, 1}} {
		for _, form := range []Formulation{FanOut, FanIn, FanBoth} {
			opt := Options{Ranks: shape.ranks, Workers: shape.workers, Formulation: form}
			t.Run(fmt.Sprintf("r%dw%d-%v", shape.ranks, shape.workers, form), func(t *testing.T) {
				an, err := Analyze(a, opt)
				if err != nil {
					t.Fatal(err)
				}
				for i, sigma := range []float64{0.1, 0.5, 1, 3} {
					sh, err := a.ShiftDiag(sigma)
					if err != nil {
						t.Fatal(err)
					}
					reuse := savedBits(t, func() (*Factor, error) { return an.Factorize(sh) })
					cold := savedBits(t, func() (*Factor, error) { return Factorize(sh, opt) })
					if !bytes.Equal(reuse, cold) {
						t.Errorf("shift %d (σ=%g): the factor through the analysis differs from the cold one", i, sigma)
					}
				}
			})
		}
	}
}

// rebuilt returns a copy of a without its entry (drop, dropCol) — none
// when dropCol is -1 — and with an entry at (add, addCol), value v, when
// addCol is not -1.
func rebuilt(t *testing.T, a *Matrix, drop, dropCol, add, addCol int) *Matrix {
	t.Helper()
	b := NewBuilder(a.N)
	for j := 0; j < a.N; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			if i := int(a.RowInd[p]); i != drop || j != dropCol {
				b.Add(i, j, a.Val[p])
			}
		}
	}
	if addCol >= 0 {
		b.Add(add, addCol, -0.01)
	}
	m, err := b.ToSym()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestPlanPatternMismatch: a matrix whose pattern differs from the analysed
// one — an entry removed, an entry added, an entry moved (same count), a
// different order — is an error from Analysis.Factorize, never a panic or
// a factor of the wrong matrix. The removed entry is off the diagonal, so
// the smaller matrix is still SPD and only the pattern check can refuse
// it.
func TestPlanPatternMismatch(t *testing.T) {
	a := Laplace3D(5, 5, 4)
	// (1,0) is stored; (a.N-1, 0) is not.
	if a.At(1, 0) == 0 || a.At(a.N-1, 0) != 0 {
		t.Fatal("the test's entries are not where it expects them")
	}
	cases := []struct {
		name string
		m    *Matrix
	}{
		{"removed", rebuilt(t, a, 1, 0, 0, -1)},
		{"added", rebuilt(t, a, 0, -1, a.N-1, 0)},
		{"moved", rebuilt(t, a, 1, 0, a.N-1, 0)},
		{"order", Laplace3D(5, 5, 5)},
	}
	for _, ranks := range []int{1, 3} {
		an, err := Analyze(a, Options{Ranks: ranks, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cases {
			t.Run(fmt.Sprintf("%s-r%d", c.name, ranks), func(t *testing.T) {
				f, err := an.Factorize(c.m)
				if err == nil || f != nil {
					t.Fatalf("factor %v, err %v: want a pattern error", f != nil, err)
				}
				if !strings.Contains(err.Error(), "pattern") {
					t.Errorf("err = %v, want it to name the pattern", err)
				}
			})
		}
		// The analysed pattern itself still factors.
		if _, err := an.Factorize(a); err != nil {
			t.Fatal(err)
		}
	}
}
