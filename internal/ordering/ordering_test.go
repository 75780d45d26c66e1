package ordering

import (
	"testing"
	"testing/quick"

	"sympack/internal/gen"
	"sympack/internal/graph"
	"sympack/internal/matrix"
)

// bruteFill counts the nonzeros of the Cholesky factor of the permuted
// matrix by straightforward symbolic elimination; O(fill) with sets, fine
// for test-sized problems.
func bruteFill(a *matrix.SparseSym, perm []int32) int {
	p, err := a.Permute(perm)
	if err != nil {
		panic(err)
	}
	n := p.N
	rows := make([]map[int32]bool, n)
	for j := 0; j < n; j++ {
		rows[j] = map[int32]bool{}
		for q := p.ColPtr[j]; q < p.ColPtr[j+1]; q++ {
			if int(p.RowInd[q]) != j {
				rows[j][p.RowInd[q]] = true
			}
		}
	}
	fill := n // diagonal
	for j := 0; j < n; j++ {
		fill += len(rows[j])
		// Find the parent (minimum row index below j).
		var parent int32 = -1
		for r := range rows[j] {
			if parent == -1 || r < parent {
				parent = r
			}
		}
		if parent >= 0 {
			for r := range rows[j] {
				if r != parent {
					rows[parent][r] = true
				}
			}
		}
	}
	return fill
}

func allKinds() []Kind { return []Kind{Natural, RCM, MinDegree, NestedDissection} }

func TestComputeProducesValidPermutations(t *testing.T) {
	mats := map[string]*matrix.SparseSym{
		"laplace2d": gen.Laplace2D(9, 7),
		"laplace3d": gen.Laplace3D(4, 4, 4),
		"flan":      gen.Flan3D(3, 3, 2, 1),
		"bone":      gen.Bone3D(5, 5, 5, 0.3, 2),
		"thermal":   gen.Thermal2D(14, 14, 3, 3),
		"random":    gen.RandomSPD(40, 0.1, 4),
		"diag":      gen.RandomSPD(10, 0, 5), // disconnected (diagonal)
		"tiny":      gen.Laplace2D(1, 1),
	}
	for name, m := range mats {
		for _, k := range allKinds() {
			perm, err := Compute(k, m)
			if err != nil {
				t.Fatalf("%s/%v: %v", name, k, err)
			}
			if err := Validate(perm, m.N); err != nil {
				t.Fatalf("%s/%v: %v", name, k, err)
			}
		}
	}
}

func TestNestedDissectionReducesFill(t *testing.T) {
	m := gen.Laplace2D(16, 16)
	natural, _ := Compute(Natural, m)
	nd, _ := Compute(NestedDissection, m)
	md, _ := Compute(MinDegree, m)
	fNat := bruteFill(m, natural)
	fND := bruteFill(m, nd)
	fMD := bruteFill(m, md)
	if fND >= fNat {
		t.Fatalf("ND fill %d not better than natural %d", fND, fNat)
	}
	if fMD >= fNat {
		t.Fatalf("MD fill %d not better than natural %d", fMD, fNat)
	}
	t.Logf("fill: natural=%d nd=%d md=%d", fNat, fND, fMD)
}

func TestRCMReducesBandwidth(t *testing.T) {
	// A random permutation of a banded problem: RCM must recover a small
	// bandwidth.
	m := gen.Laplace2D(30, 2)
	perm, _ := Compute(RCM, m)
	pm, err := m.Permute(perm)
	if err != nil {
		t.Fatal(err)
	}
	band := 0
	for j := 0; j < pm.N; j++ {
		for p := pm.ColPtr[j]; p < pm.ColPtr[j+1]; p++ {
			if b := int(pm.RowInd[p]) - j; b > band {
				band = b
			}
		}
	}
	if band > 4 {
		t.Fatalf("RCM bandwidth = %d, want small", band)
	}
}

func TestMinDegreeOnCliqueAndPath(t *testing.T) {
	// Clique: any order gives the same fill; just verify validity.
	clique := gen.RandomSPD(8, 1.0, 1)
	perm, err := Compute(MinDegree, clique)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(perm, 8); err != nil {
		t.Fatal(err)
	}
	// Path: minimum degree yields zero fill.
	path := gen.Laplace2D(20, 1)
	perm, _ = Compute(MinDegree, path)
	if fill := bruteFill(path, perm); fill != path.Nnz() {
		t.Fatalf("MD on a path should give no fill: %d vs %d", fill, path.Nnz())
	}
}

func TestParseKind(t *testing.T) {
	for _, tc := range []struct {
		want  Kind
		names []string
	}{
		{NestedDissection, []string{"SCOTCH", "scotch", "ND", "nd", "METIS", "Metis"}},
		{MinDegree, []string{"MINDEGREE", "MinDegree", "MMD", "mmd", "AMD", "amd", "MD", "md"}},
		{RCM, []string{"RCM", "rcm"}},
		{Natural, []string{"NATURAL", "natural", "NONE", "none"}},
	} {
		for _, s := range tc.names {
			if got, err := ParseKind(s); err != nil || got != tc.want {
				t.Errorf("ParseKind(%q) = %v, %v; want %v", s, got, err, tc.want)
			}
		}
	}
	for _, s := range []string{"bogus", "", "N D"} {
		if got, err := ParseKind(s); err == nil || got != 0 {
			t.Errorf("ParseKind(%q) = %v, %v; want the zero Kind and an error", s, got, err)
		}
	}
	if k := Kind(0); k != NestedDissection {
		t.Errorf("zero Kind is %v; nested dissection is the default", k)
	}
}

func TestKindString(t *testing.T) {
	for _, k := range allKinds() {
		if k.String() == "" {
			t.Fatal("empty Kind string")
		}
	}
}

func TestValidateRejects(t *testing.T) {
	if err := Validate([]int32{0, 1}, 3); err == nil {
		t.Fatal("length")
	}
	if err := Validate([]int32{0, 0, 2}, 3); err == nil {
		t.Fatal("duplicate")
	}
	if err := Validate([]int32{0, 1, 5}, 3); err == nil {
		t.Fatal("range")
	}
}

// Property: orderings are valid permutations for arbitrary random matrices,
// including disconnected ones.
func TestOrderingValidityProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8, dRaw uint8) bool {
		n := int(nRaw%40) + 1
		density := float64(dRaw%10) / 20
		m := gen.RandomSPD(n, density, seed)
		for _, k := range allKinds() {
			perm, err := Compute(k, m)
			if err != nil || Validate(perm, n) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the separator-last invariant of nested dissection — on a
// connected grid, the last-ordered vertex must be a separator vertex whose
// removal with the rest of the tail disconnects nothing it shouldn't. We
// check the weaker but meaningful invariant that ND fill ≤ natural fill.
func TestNDFillNoWorseProperty(t *testing.T) {
	f := func(a, b uint8) bool {
		nx, ny := int(a%8)+4, int(b%8)+4
		m := gen.Laplace2D(nx, ny)
		nat, _ := Compute(Natural, m)
		nd, _ := Compute(NestedDissection, m)
		// Thin strips are near-optimal under the natural banded order, so
		// allow a 10% slack there; square-ish grids must strictly improve.
		fNat, fND := bruteFill(m, nat), bruteFill(m, nd)
		if nx >= 10 && ny >= 10 {
			return fND < fNat
		}
		return float64(fND) <= 1.1*float64(fNat)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// split partitions d.verts by the side marks and returns the three parts.
func split(d *dissector) (sep, a, b []int32) {
	na, nb := 0, 0
	for _, v := range d.verts {
		switch d.side[v] {
		case sideA:
			na++
		case sideB:
			nb++
		}
	}
	d.partition(d.verts, na, nb)
	return d.verts[na+nb:], d.verts[:na], d.verts[na : na+nb]
}

func TestBisectSeparates(t *testing.T) {
	m := gen.Laplace2D(12, 12)
	g := graph.FromSparse(m)
	d := newDissector(g)
	d.bisect(d.verts, 0)
	sep, a, b := split(d)
	if len(a) == 0 || len(b) == 0 || len(sep) == 0 {
		t.Fatalf("degenerate bisection: |sep|=%d |a|=%d |b|=%d", len(sep), len(a), len(b))
	}
	// No edge may connect A directly to B.
	side := make(map[int32]int8)
	for _, v := range a {
		side[v] = 0
	}
	for _, v := range b {
		side[v] = 2
	}
	for _, v := range sep {
		side[v] = 1
	}
	for v := int32(0); int(v) < g.N; v++ {
		if side[v] != 0 {
			continue
		}
		for _, w := range g.Neighbors(v) {
			if side[w] == 2 {
				t.Fatalf("edge (%d,%d) crosses the separator", v, w)
			}
		}
	}
	// Separator should be roughly a grid line, not half the graph.
	if len(sep) > g.N/3 {
		t.Fatalf("separator too fat: %d of %d", len(sep), g.N)
	}
}

// greedyBisect handles graphs too shallow for level cuts: a clique-like
// dense graph exercises it through the ND entry point, and directly.
func TestGreedyBisectDirect(t *testing.T) {
	// A dense-ish graph with diameter 2: bisect falls through to the
	// greedy split.
	m := gen.RandomSPD(30, 0.6, 9)
	g := graph.FromSparse(m)
	d := newDissector(g)
	greedyBisect(g, d.ws, d.verts, d.label, 0, d.side)
	sep, a, b := split(d)
	if len(sep)+len(a)+len(b) != g.N {
		t.Fatalf("partition does not cover: %d+%d+%d != %d", len(sep), len(a), len(b), g.N)
	}
	side := map[int32]int8{}
	for _, v := range a {
		side[v] = 0
	}
	for _, v := range b {
		side[v] = 2
	}
	for _, v := range sep {
		side[v] = 1
	}
	for v := int32(0); int(v) < g.N; v++ {
		if side[v] != 0 {
			continue
		}
		for _, w := range g.Neighbors(v) {
			if side[w] == 2 {
				t.Fatalf("edge (%d,%d) crosses the greedy separator", v, w)
			}
		}
	}
	// The dense graph must still produce a valid ND ordering end to end
	// (exercising the clique fallback inside the recursion too).
	big := gen.RandomSPD(80, 0.7, 10)
	perm, err := Compute(NestedDissection, big)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(perm, big.N); err != nil {
		t.Fatal(err)
	}
}

// refineSeparator's swap move: construct a path where a separator vertex
// has exactly one far-side neighbor, so the zero-gain swap fires.
func TestRefineSeparatorSwap(t *testing.T) {
	// Path 0-1-2-3-4: sides {0,1}=A, {2}=sep, {3,4}=B initially, then
	// unbalance A to force the swap toward it.
	m := gen.Laplace2D(9, 1)
	g := graph.FromSparse(m)
	side := []int8{0, 0, 1, 2, 2, 2, 2, 2, 2} // A small, B big
	refineSeparator(g, identity(g.N), make([]int32, g.N), 0, side, 4)
	nSep := 0
	for _, s := range side {
		if s == 1 {
			nSep++
		}
	}
	if nSep != 1 {
		t.Fatalf("path separator should stay size 1, got %d (%v)", nSep, side)
	}
	// The separator vertex must still separate.
	for v := int32(0); int(v) < g.N; v++ {
		if side[v] != 0 {
			continue
		}
		for _, w := range g.Neighbors(v) {
			if side[w] == 2 {
				t.Fatalf("refinement broke the separator: edge (%d,%d)", v, w)
			}
		}
	}
}
