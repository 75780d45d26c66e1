package gen

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"sympack/internal/blas"
	"sympack/internal/matrix"
)

// isSPDDense checks positive definiteness by dense Cholesky; only usable for
// small n.
func isSPDDense(t *testing.T, s *matrix.SparseSym) bool {
	t.Helper()
	if s.N > 400 {
		t.Fatalf("isSPDDense called with n=%d", s.N)
	}
	d := s.Dense()
	return blas.Potrf(blas.Lower, s.N, d, s.N) == nil
}

func TestLaplace2DStructure(t *testing.T) {
	s := Laplace2D(4, 3)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.N != 12 {
		t.Fatalf("n = %d, want 12", s.N)
	}
	// Interior node degree 4, corner degree 2.
	if got := s.At(0, 0); got != 3 { // corner: 1 + 2 edges
		t.Fatalf("corner diagonal = %g, want 3", got)
	}
	if got := s.At(5, 5); got != 5 { // interior of 4x3: 1 + 4 edges
		t.Fatalf("interior diagonal = %g, want 5", got)
	}
	if got := s.At(1, 0); got != -1 {
		t.Fatalf("coupling = %g, want -1", got)
	}
	if !isSPDDense(t, s) {
		t.Fatal("Laplace2D not SPD")
	}
}

func TestLaplace3DStructure(t *testing.T) {
	s := Laplace3D(3, 3, 3)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.N != 27 {
		t.Fatalf("n = %d, want 27", s.N)
	}
	// Center node has 6 neighbors.
	if got := s.At(13, 13); got != 7 {
		t.Fatalf("center diagonal = %g, want 7", got)
	}
	if !isSPDDense(t, s) {
		t.Fatal("Laplace3D not SPD")
	}
}

func TestFlan3DIsSPDAndDense(t *testing.T) {
	s := Flan3D(3, 3, 3, 1)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.N != 81 {
		t.Fatalf("n = %d, want 81 (3 dof × 27 nodes)", s.N)
	}
	if !isSPDDense(t, s) {
		t.Fatal("Flan3D not SPD")
	}
	// High connectivity: nnz/row well above the 7-point stencil's.
	perRow := float64(s.NnzFull()) / float64(s.N)
	if perRow < 15 {
		t.Fatalf("Flan3D nnz/row = %.1f, want dense-ish (>15)", perRow)
	}
}

func TestFlan3DDeterministic(t *testing.T) {
	a := Flan3D(3, 3, 2, 7)
	b := Flan3D(3, 3, 2, 7)
	if a.Nnz() != b.Nnz() {
		t.Fatal("same seed produced different structure")
	}
	for i := range a.Val {
		if a.Val[i] != b.Val[i] {
			t.Fatal("same seed produced different values")
		}
	}
	c := Flan3D(3, 3, 2, 8)
	same := a.Nnz() == c.Nnz()
	if same {
		for i := range a.Val {
			if a.Val[i] != c.Val[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical matrices")
	}
}

func TestBone3DPorosity(t *testing.T) {
	full := Bone3D(8, 8, 8, 0, 3)
	porous := Bone3D(8, 8, 8, 0.4, 3)
	if porous.N >= full.N {
		t.Fatalf("porosity did not remove nodes: %d vs %d", porous.N, full.N)
	}
	if porous.N < 100 { // ~60% of 512
		t.Fatalf("porosity removed too many nodes: %d", porous.N)
	}
	if err := porous.Validate(); err != nil {
		t.Fatal(err)
	}
	small := Bone3D(5, 5, 5, 0.4, 3)
	if !isSPDDense(t, small) {
		t.Fatal("Bone3D not SPD")
	}
}

func TestBone3DExtremePorosity(t *testing.T) {
	s := Bone3D(4, 4, 4, 1.0, 1)
	if s.N < 1 {
		t.Fatal("degenerate porosity must leave at least one node")
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestThermal2DSparsity(t *testing.T) {
	s := Thermal2D(32, 32, 6, 4)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.N >= 32*32 {
		t.Fatal("voids did not remove nodes")
	}
	perRow := float64(s.NnzFull()) / float64(s.N)
	if perRow > 6 {
		t.Fatalf("Thermal2D nnz/row = %.1f, want very sparse (≤6)", perRow)
	}
	small := Thermal2D(12, 12, 3, 4)
	if !isSPDDense(t, small) {
		t.Fatal("Thermal2D not SPD")
	}
}

func TestRandomSPD(t *testing.T) {
	s := RandomSPD(30, 0.2, 5)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if !isSPDDense(t, s) {
		t.Fatal("RandomSPD not SPD")
	}
}

func TestTable1Problems(t *testing.T) {
	probs := Table1Problems()
	if len(probs) != 3 {
		t.Fatalf("want 3 problems, got %d", len(probs))
	}
	names := map[string]bool{}
	for _, p := range probs {
		m := p.Build(1)
		if err := m.Validate(); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		st := StatsOf(p.Name, p.Description, m)
		if st.N != m.N || st.Nnz != m.NnzFull() {
			t.Fatalf("%s: bad stats", p.Name)
		}
		names[p.Name] = true
	}
	for _, want := range []string{"Flan_1565", "boneS10", "thermal2"} {
		if !names[want] {
			t.Fatalf("missing problem %s", want)
		}
	}
}

// TestTable1Grids pins the ladder Figs. 6–12 factor and Table 1 describes:
// at scale 1 each problem is its generator on the stated grid and seed.
func TestTable1Grids(t *testing.T) {
	want := map[string]*matrix.SparseSym{
		"Flan_1565": Flan3D(7, 7, 7, 1565),
		"boneS10":   Bone3D(14, 14, 14, 0.35, 10),
		"thermal2":  Thermal2D(160, 160, 10, 2),
	}
	for _, p := range Table1Problems() {
		if got := p.Build(1); !reflect.DeepEqual(got, want[p.Name]) {
			t.Errorf("%s at scale 1: n=%d, not the figures' grid", p.Name, got.N)
		}
	}
}

func TestBuildAllKinds(t *testing.T) {
	for _, kind := range []string{"flan", "bone", "thermal", "laplace2d", "laplace3d", "random"} {
		a, err := Build(kind, 1, 7)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		again, _ := Build(kind, 1, 7)
		if !reflect.DeepEqual(a, again) {
			t.Fatalf("%s: same kind, scale and seed built different matrices", kind)
		}
	}
	if a, _ := Build("laplace3d", 2, 1); a.N != 5*5*5 {
		t.Fatalf("laplace3d:2 has n=%d, want 125", a.N)
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build("nosuch", 1, 1); err == nil {
		t.Fatal("expected unknown-kind error")
	}
	if _, err := Build("flan", 0, 1); err == nil {
		t.Fatal("expected scale error")
	}
}

// Table 1 regime check: the Flan analogue must be the densest per row and
// the thermal analogue the sparsest, matching the originals' character.
func TestTable1StructuralRegimes(t *testing.T) {
	probs := Table1Problems()
	per := map[string]float64{}
	for _, p := range probs {
		m := p.Build(2)
		per[p.Name] = float64(m.NnzFull()) / float64(m.N)
	}
	if !(per["Flan_1565"] > per["boneS10"] && per["boneS10"] > per["thermal2"]) {
		t.Fatalf("density ordering wrong: %v", per)
	}
}

// Property: every generator output is SPD (diagonal dominance ⇒ dense Potrf
// succeeds) for random small shapes.
func TestGeneratorsSPDProperty(t *testing.T) {
	f := func(seed int64, a, b uint8) bool {
		nx, ny := int(a%5)+2, int(b%5)+2
		mats := []*matrix.SparseSym{
			Laplace2D(nx, ny),
			Thermal2D(nx*3, ny*3, 2, seed),
			Bone3D(nx, ny, 3, 0.3, seed),
			RandomSPD(nx*ny, 0.3, seed),
		}
		for _, m := range mats {
			if m.Validate() != nil {
				return false
			}
			if m.N <= 200 {
				d := m.Dense()
				if blas.Potrf(blas.Lower, m.N, d, m.N) != nil {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Fatal(err)
	}
}
