package graph

import (
	"testing"

	"sympack/internal/gen"
)

func pathGraph(n int) *Graph {
	return FromSparse(gen.Laplace2D(n, 1))
}

func TestFromSparseAdjacency(t *testing.T) {
	s := gen.Laplace2D(3, 2) // 3x2 grid
	g := FromSparse(s)
	if g.N != 6 {
		t.Fatalf("N = %d", g.N)
	}
	// Vertex 0 (corner) neighbors: 1 (right) and 3 (up).
	nb := g.Neighbors(0)
	if len(nb) != 2 || nb[0] != 1 || nb[1] != 3 {
		t.Fatalf("neighbors(0) = %v, want [1 3]", nb)
	}
	// Vertex 4 (middle of top row): neighbors 1, 3, 5.
	nb = g.Neighbors(4)
	if len(nb) != 3 || nb[0] != 1 || nb[1] != 3 || nb[2] != 5 {
		t.Fatalf("neighbors(4) = %v, want [1 3 5]", nb)
	}
	// Degrees are symmetric: every edge appears in both lists.
	for v := int32(0); int(v) < g.N; v++ {
		for _, w := range g.Neighbors(v) {
			found := false
			for _, x := range g.Neighbors(w) {
				if x == v {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("edge (%d,%d) not symmetric", v, w)
			}
		}
	}
}

func TestBFSLevels(t *testing.T) {
	g := pathGraph(5) // path of 5 vertices
	ls := g.BFS(NewWorkspace(g.N), 0, nil, 0)
	if ls.Depth() != 5 {
		t.Fatalf("depth = %d, want 5", ls.Depth())
	}
	if ls.Width() != 1 {
		t.Fatalf("width = %d, want 1", ls.Width())
	}
	if len(ls.Order) != 5 {
		t.Fatalf("order covers %d vertices", len(ls.Order))
	}
	for i, v := range ls.Order {
		if int(v) != i {
			t.Fatalf("path BFS order wrong at %d: %d", i, v)
		}
	}
}

func TestBFSMask(t *testing.T) {
	g := pathGraph(5)
	label := []int32{7, 7, 0, 7, 7} // vertex 2 is outside the set
	ws := NewWorkspace(g.N)
	ls := g.BFS(ws, 0, label, 7)
	if len(ls.Order) != 2 {
		t.Fatalf("masked BFS reached %d vertices, want 2", len(ls.Order))
	}
	// The workspace carries nothing over: a second traversal from the other
	// side of the gap sees its own two vertices.
	ls = g.BFS(ws, 4, label, 7)
	if len(ls.Order) != 2 || ls.Order[0] != 4 || ls.Order[1] != 3 {
		t.Fatalf("second masked BFS = %v, want [4 3]", ls.Order)
	}
}

func TestPseudoPeripheralOnPath(t *testing.T) {
	g := pathGraph(9)
	root, ls := g.PseudoPeripheral(NewWorkspace(g.N), 4, nil, 0) // start mid-path
	if root != 0 && root != 8 {
		t.Fatalf("pseudo-peripheral of a path should be an endpoint, got %d", root)
	}
	if ls.Depth() != 9 {
		t.Fatalf("eccentricity = %d, want 9", ls.Depth())
	}
}

// runs cuts verts into its runs of equal label: the components, after
// Components.
func runs(verts, label []int32) [][]int32 {
	var out [][]int32
	for lo := 0; lo < len(verts); {
		hi := lo + 1
		for hi < len(verts) && label[verts[hi]] == label[verts[lo]] {
			hi++
		}
		out = append(out, verts[lo:hi])
		lo = hi
	}
	return out
}

func iota32(n int) []int32 {
	v := make([]int32, n)
	for i := range v {
		v[i] = int32(i)
	}
	return v
}

func TestComponents(t *testing.T) {
	// Two disjoint paths via a block-diagonal matrix.
	s := gen.RandomSPD(4, 0, 1) // diagonal only: 4 singletons
	g := FromSparse(s)
	verts, label := iota32(g.N), make([]int32, g.N)
	if n := g.Components(NewWorkspace(g.N), verts, label, 0, 1); n != 4 || len(runs(verts, label)) != 4 {
		t.Fatalf("components = %d, want 4", n)
	}
	g2 := pathGraph(6)
	ws := NewWorkspace(g2.N)
	verts, label = iota32(6), make([]int32, 6)
	n := g2.Components(ws, verts, label, 0, 1)
	if comps2 := runs(verts, label); n != 1 || len(comps2) != 1 || len(comps2[0]) != 6 {
		t.Fatalf("path should be one component of 6, got %v", comps2)
	}
	// Masked components: vertex 3 is outside the set.
	verts, label = []int32{0, 1, 2, 4, 5}, []int32{0, 0, 0, 9, 0, 0}
	n = g2.Components(ws, verts, label, 0, 1)
	comps3 := runs(verts, label)
	if n != 2 || len(comps3) != 2 {
		t.Fatalf("masked path should split into 2 components, got %d", n)
	}
	if label[3] != 9 {
		t.Fatalf("vertex outside the set was relabelled to %d", label[3])
	}
}

// Components on an interleaved set: the components come out contiguous, in
// order of their smallest vertex, each ascending, under labels next, next+1.
func TestComponentsOrderAndLabels(t *testing.T) {
	// A 3x3 grid without its middle column: the left and right columns are
	// two paths, {0,3,6} and {2,5,8}, whose vertex ids interleave.
	g := FromSparse(gen.Laplace2D(3, 3))
	label := make([]int32, 9)
	for _, v := range []int32{1, 4, 7} {
		label[v] = -1
	}
	verts := []int32{0, 2, 3, 5, 6, 8}
	if n := g.Components(NewWorkspace(g.N), verts, label, 0, 5); n != 2 {
		t.Fatalf("components = %d, want 2", n)
	}
	want := []int32{0, 3, 6, 2, 5, 8}
	for i := range want {
		if verts[i] != want[i] {
			t.Fatalf("verts = %v, want %v", verts, want)
		}
	}
	for i, v := range verts {
		if wantL := int32(5 + i/3); label[v] != wantL {
			t.Fatalf("label[%d] = %d, want %d", v, label[v], wantL)
		}
	}
}

// The induced subgraph is never built; its adjacency is the labelled view
// of the graph's own lists. Same assertions the copy used to get: on the
// 2x2 corner {0,1,3,4} of a 3x3 grid, vertex 0 sees the set's second and
// third vertex, and the view has 4 edges.
func TestInducedSubgraph(t *testing.T) {
	g := FromSparse(gen.Laplace2D(3, 3))
	verts := []int32{0, 1, 3, 4}
	label := make([]int32, g.N)
	local := map[int32]int32{}
	for i, v := range verts {
		label[v] = 1
		local[v] = int32(i)
	}
	var nb []int32
	for _, w := range g.Neighbors(0) {
		if label[w] == 1 {
			nb = append(nb, local[w])
		}
	}
	if len(nb) != 2 || nb[0] != 1 || nb[1] != 2 {
		t.Fatalf("sub neighbors(0) = %v", nb)
	}
	if d := g.LabelDegree(0, label, 1); d != 2 {
		t.Fatalf("LabelDegree(0) = %d, want 2", d)
	}
	// Edge count: 4 edges in the 2x2 block.
	ends := 0
	for _, v := range verts {
		ends += g.LabelDegree(v, label, 1)
	}
	if ends != 8 {
		t.Fatalf("sub edge endpoints = %d, want 8", ends)
	}
	// Vertex 4 has degree 4 in the grid, 2 in the set, 4 without a label.
	if g.LabelDegree(4, label, 1) != 2 || g.LabelDegree(4, nil, 0) != 4 {
		t.Fatalf("LabelDegree(4) = %d / %d", g.LabelDegree(4, label, 1), g.LabelDegree(4, nil, 0))
	}
}

func TestLevelStructureWidth(t *testing.T) {
	g := FromSparse(gen.Laplace2D(4, 4))
	ls := g.BFS(NewWorkspace(g.N), 0, nil, 0)
	// Diagonal BFS on a 4x4 grid: widths 1,2,3,4,3,2,1 → max 4.
	if ls.Width() != 4 {
		t.Fatalf("width = %d, want 4", ls.Width())
	}
	if ls.Depth() != 7 {
		t.Fatalf("depth = %d, want 7", ls.Depth())
	}
}
