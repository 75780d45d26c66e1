package etree

import (
	"testing"
	"testing/quick"

	"sympack/internal/gen"
	"sympack/internal/matrix"
)

// bruteParent computes the elimination tree definition directly: simulate
// symbolic elimination; parent(j) = min row index > j in column j of L.
func bruteParent(a *matrix.SparseSym) []int32 {
	n := a.N
	rows := make([]map[int32]bool, n)
	for j := 0; j < n; j++ {
		rows[j] = map[int32]bool{}
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			if int(a.RowInd[p]) != j {
				rows[j][a.RowInd[p]] = true
			}
		}
	}
	parent := make([]int32, n)
	for j := 0; j < n; j++ {
		parent[j] = -1
		for r := range rows[j] {
			if parent[j] == -1 || r < parent[j] {
				parent[j] = r
			}
		}
		if parent[j] >= 0 {
			for r := range rows[j] {
				if r != parent[j] {
					rows[parent[j]][r] = true
				}
			}
		}
	}
	return parent
}

func mats() map[string]*matrix.SparseSym {
	return map[string]*matrix.SparseSym{
		"laplace2d": gen.Laplace2D(7, 5),
		"laplace3d": gen.Laplace3D(3, 3, 3),
		"flan":      gen.Flan3D(2, 2, 2, 1),
		"thermal":   gen.Thermal2D(10, 10, 2, 3),
		"random":    gen.RandomSPD(30, 0.15, 4),
		"diagonal":  gen.RandomSPD(8, 0, 5),
		"single":    gen.Laplace2D(1, 1),
	}
}

func TestComputeMatchesBruteForce(t *testing.T) {
	for name, m := range mats() {
		got := Compute(m).Parent
		want := bruteParent(m)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("%s: parent[%d] = %d, want %d", name, j, got[j], want[j])
			}
		}
	}
}

func TestPostorderProperties(t *testing.T) {
	for name, m := range mats() {
		tr := Compute(m)
		post := tr.Postorder()
		// post is a permutation.
		seen := make([]bool, m.N)
		for _, v := range post {
			if seen[v] {
				t.Fatalf("%s: duplicate %d in postorder", name, v)
			}
			seen[v] = true
		}
		// Every child appears before its parent.
		position := make([]int32, m.N)
		for k, v := range post {
			position[v] = int32(k)
		}
		for j, p := range tr.Parent {
			if p != -1 && position[j] >= position[p] {
				t.Fatalf("%s: vertex %d not before parent %d", name, j, p)
			}
		}
		// The permuted tree is postordered, and so is the etree of the
		// permuted matrix.
		pt := tr.Permute(post)
		if !pt.IsPostordered() {
			t.Fatalf("%s: permuted tree not postordered", name)
		}
		pm, err := m.Permute(post)
		if err != nil {
			t.Fatal(err)
		}
		if !Compute(pm).IsPostordered() {
			t.Fatalf("%s: etree of postorder-permuted matrix not postordered", name)
		}
	}
}

func TestPermuteConsistentWithMatrixPermute(t *testing.T) {
	// The etree of PAPᵀ must equal the permuted etree of A when P is a
	// topological (postorder) permutation.
	m := gen.Laplace2D(6, 6)
	tr := Compute(m)
	post := tr.Postorder()
	pm, err := m.Permute(post)
	if err != nil {
		t.Fatal(err)
	}
	want := Compute(pm).Parent
	got := tr.Permute(post).Parent
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("parent[%d]: permuted-tree %d vs tree-of-permuted %d", j, got[j], want[j])
		}
	}
}

func TestChildrenAndRoots(t *testing.T) {
	tr := &Tree{Parent: []int32{2, 2, 4, 4, -1, -1}}
	first, next := tr.ChildLists()
	ch := make([][]int32, tr.N())
	for v := range ch {
		for c := first[v]; c != -1; c = next[c] {
			ch[v] = append(ch[v], c)
		}
	}
	if len(ch[2]) != 2 || ch[2][0] != 0 || ch[2][1] != 1 {
		t.Fatalf("children(2) = %v", ch[2])
	}
	if len(ch[4]) != 2 || ch[4][0] != 2 || ch[4][1] != 3 {
		t.Fatalf("children(4) = %v", ch[4])
	}
	roots := tr.Roots()
	if len(roots) != 2 || roots[0] != 4 || roots[1] != 5 {
		t.Fatalf("roots = %v", roots)
	}
}

func TestLevelAndHeight(t *testing.T) {
	tr := &Tree{Parent: []int32{1, 2, -1, 2}}
	lvl := tr.Level()
	want := []int32{2, 1, 0, 1}
	for i := range want {
		if lvl[i] != want[i] {
			t.Fatalf("level[%d] = %d, want %d", i, lvl[i], want[i])
		}
	}
	if tr.Height() != 3 {
		t.Fatalf("height = %d, want 3", tr.Height())
	}
}

func TestLevelDeepPath(t *testing.T) {
	// A path of 50k vertices must not blow the stack.
	n := 50000
	parent := make([]int32, n)
	for i := 0; i < n-1; i++ {
		parent[i] = int32(i + 1)
	}
	parent[n-1] = -1
	tr := &Tree{Parent: parent}
	lvl := tr.Level()
	if lvl[0] != int32(n-1) || lvl[n-1] != 0 {
		t.Fatalf("path levels wrong: %d %d", lvl[0], lvl[n-1])
	}
	post := tr.Postorder()
	if len(post) != n || post[0] != 0 {
		t.Fatal("path postorder wrong")
	}
}

func TestFirstDescendants(t *testing.T) {
	tr := &Tree{Parent: []int32{2, 2, 4, 4, -1}}
	fd, err := tr.FirstDescendants()
	if err != nil {
		t.Fatal(err)
	}
	want := []int32{0, 1, 0, 3, 0}
	for i := range want {
		if fd[i] != want[i] {
			t.Fatalf("fd[%d] = %d, want %d", i, fd[i], want[i])
		}
	}
	bad := &Tree{Parent: []int32{-1, 0}}
	if _, err := bad.FirstDescendants(); err == nil {
		t.Fatal("expected ErrNotPostordered")
	}
}

// Property: for random SPD structures, the computed parent matches the
// brute-force definition and postorder is always a valid topological
// relabeling.
func TestEtreeProperty(t *testing.T) {
	f := func(seed int64, nRaw, dRaw uint8) bool {
		n := int(nRaw%25) + 1
		m := gen.RandomSPD(n, float64(dRaw%10)/15, seed)
		tr := Compute(m)
		want := bruteParent(m)
		for j := range want {
			if tr.Parent[j] != want[j] {
				return false
			}
		}
		post := tr.Postorder()
		if len(post) != n {
			return false
		}
		return tr.Permute(post).IsPostordered()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// bruteColCounts counts column nonzeros of L by symbolic elimination.
func bruteColCounts(a *matrix.SparseSym) []int32 {
	n := a.N
	rows := make([]map[int32]bool, n)
	for j := 0; j < n; j++ {
		rows[j] = map[int32]bool{int32(j): true}
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			rows[j][a.RowInd[p]] = true
		}
	}
	counts := make([]int32, n)
	for j := 0; j < n; j++ {
		var parent int32 = -1
		for r := range rows[j] {
			if r > int32(j) && (parent == -1 || r < parent) {
				parent = r
			}
		}
		if parent >= 0 {
			for r := range rows[j] {
				if r > int32(j) {
					rows[parent][r] = true
				}
			}
		}
		counts[j] = int32(len(rows[j]))
	}
	return counts
}

func TestColCountsMatchBruteForce(t *testing.T) {
	for name, m := range mats() {
		tr := Compute(m)
		post := tr.Postorder()
		got := tr.ColCounts(m, post)
		want := bruteColCounts(m)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("%s: count[%d] = %d, want %d", name, j, got[j], want[j])
			}
		}
	}
}

// Property: the skeleton algorithm agrees with brute force on random
// structures, including unordered (non-postordered) labelings.
func TestColCountsProperty(t *testing.T) {
	f := func(seed int64, nRaw, dRaw uint8) bool {
		n := int(nRaw%30) + 1
		m := gen.RandomSPD(n, float64(dRaw%10)/12, seed)
		tr := Compute(m)
		got := tr.ColCounts(m, tr.Postorder())
		want := bruteColCounts(m)
		for j := range want {
			if got[j] != want[j] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
