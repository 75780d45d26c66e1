package symbolic

import (
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

	"sympack/internal/etree"
	"sympack/internal/gen"
	"sympack/internal/matrix"
	"sympack/internal/ordering"
)

func analyze(t *testing.T, m *matrix.SparseSym, ord ordering.Kind, opt Options) (*Structure, *matrix.SparseSym) {
	t.Helper()
	st, pm, err := Analyze(m, ord, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
	return st, pm
}

// bruteLStruct computes the exact scalar structure of L for a permuted
// matrix via symbolic elimination (sets).
func bruteLStruct(a *matrix.SparseSym) []map[int32]bool {
	n := a.N
	rows := make([]map[int32]bool, n)
	for j := 0; j < n; j++ {
		rows[j] = map[int32]bool{int32(j): true}
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			rows[j][a.RowInd[p]] = true
		}
	}
	for j := 0; j < n; j++ {
		var parent int32 = -1
		for r := range rows[j] {
			if r > int32(j) && (parent == -1 || r < parent) {
				parent = r
			}
		}
		if parent >= 0 {
			for r := range rows[j] {
				if r > int32(j) && r != parent {
					rows[parent][r] = true
				}
			}
		}
	}
	return rows
}

func testMats() map[string]*matrix.SparseSym {
	return map[string]*matrix.SparseSym{
		"laplace2d": gen.Laplace2D(8, 8),
		"laplace3d": gen.Laplace3D(4, 3, 3),
		"flan":      gen.Flan3D(2, 2, 2, 1),
		"bone":      gen.Bone3D(5, 4, 4, 0.3, 2),
		"thermal":   gen.Thermal2D(12, 12, 3, 3),
		"random":    gen.RandomSPD(40, 0.1, 4),
		"dense":     gen.RandomSPD(12, 1.0, 5),
		"diag":      gen.RandomSPD(6, 0, 6),
		"single":    gen.Laplace2D(1, 1),
	}
}

func TestAnalyzeAllMatricesAllOrderings(t *testing.T) {
	for name, m := range testMats() {
		for _, ord := range []ordering.Kind{ordering.Natural, ordering.NestedDissection, ordering.MinDegree} {
			st, pm := analyze(t, m, ord, DefaultOptions())
			if pm.N != m.N {
				t.Fatalf("%s: permuted n mismatch", name)
			}
			if st.NnzL < int64(m.Nnz()) {
				t.Fatalf("%s/%v: NnzL %d below nnz(A) %d", name, ord, st.NnzL, m.Nnz())
			}
		}
	}
}

// The supernodal structure must cover the exact scalar structure of L:
// every true nonzero (r, c) of L lies inside the supernode of c's rows.
func TestSupernodeStructureCoversL(t *testing.T) {
	for name, m := range testMats() {
		for _, opt := range []Options{{}, DefaultOptions(), {MaxSupernodeSize: 2}, {RelaxRatio: 0.9}} {
			st, pm := analyze(t, m, ordering.NestedDissection, opt)
			brute := bruteLStruct(pm)
			for j := 0; j < pm.N; j++ {
				sn := &st.Snodes[st.SnOf[j]]
				inRows := map[int32]bool{}
				for _, r := range sn.Rows {
					inRows[r] = true
				}
				for r := range brute[j] {
					if r >= int32(j) && !inRows[r] {
						t.Fatalf("%s opt=%+v: L(%d,%d) nonzero but row missing from supernode %d", name, opt, r, j, st.SnOf[j])
					}
				}
			}
		}
	}
}

// With strict options (no relaxation, no cap) and the natural ordering the
// supernodal structure must equal the scalar structure exactly — no padding.
func TestStrictSupernodesExact(t *testing.T) {
	for name, m := range testMats() {
		st, pm := analyze(t, m, ordering.Natural, Options{})
		brute := bruteLStruct(pm)
		var bruteNnz int64
		for j := 0; j < pm.N; j++ {
			for r := range brute[j] {
				if r >= int32(j) {
					bruteNnz++
				}
			}
		}
		// Fundamental supernodes store the dense trapezoid, which for an
		// exact partition equals the scalar count: struct(c) within a
		// supernode is the suffix of the first column's struct.
		if st.NnzL != bruteNnz {
			t.Fatalf("%s: supernodal nnz %d != scalar nnz %d", name, st.NnzL, bruteNnz)
		}
	}
}

func TestColCountMatchesBrute(t *testing.T) {
	m := gen.Laplace2D(7, 6)
	st, pm := analyze(t, m, ordering.NestedDissection, DefaultOptions())
	brute := bruteLStruct(pm)
	for j := 0; j < pm.N; j++ {
		cnt := int32(0)
		for r := range brute[j] {
			if r >= int32(j) {
				cnt++
			}
		}
		if st.ColCount[j] != cnt {
			t.Fatalf("ColCount[%d] = %d, want %d", j, st.ColCount[j], cnt)
		}
	}
}

func TestMaxSupernodeSizeRespected(t *testing.T) {
	m := gen.Flan3D(3, 3, 3, 1) // dense supernodes
	for _, cap := range []int{1, 2, 5, 16} {
		st, _ := analyze(t, m, ordering.NestedDissection, Options{MaxSupernodeSize: cap})
		for k := range st.Snodes {
			if w := st.Snodes[k].NCols(); w > cap {
				t.Fatalf("cap %d: supernode %d has width %d", cap, k, w)
			}
		}
	}
}

func TestRelaxationReducesSupernodeCount(t *testing.T) {
	m := gen.Thermal2D(20, 20, 3, 1) // thin supernodes
	strict, _ := analyze(t, m, ordering.NestedDissection, Options{})
	relaxed, _ := analyze(t, m, ordering.NestedDissection, Options{RelaxRatio: 0.5})
	if relaxed.NumSupernodes() >= strict.NumSupernodes() {
		t.Fatalf("relaxation did not merge: %d vs %d", relaxed.NumSupernodes(), strict.NumSupernodes())
	}
	if relaxed.NnzL < strict.NnzL {
		t.Fatal("relaxation cannot shrink storage")
	}
}

func TestFindBlock(t *testing.T) {
	m := gen.Laplace2D(10, 10)
	st, _ := analyze(t, m, ordering.NestedDissection, DefaultOptions())
	for bi := range st.Blocks {
		b := &st.Blocks[bi]
		if got := st.FindBlock(b.RowSn, b.Snode); got != b.ID {
			t.Fatalf("FindBlock(%d,%d) = %d, want %d", b.RowSn, b.Snode, got, b.ID)
		}
	}
	if st.FindBlock(int32(st.NumSupernodes()-1), 0) >= 0 {
		// only valid if such block exists; look for a guaranteed miss:
		// a diagonal-only structure won't have B_{last, 0} unless fill
		// created it. Use an explicit absent pair instead:
		_ = 0
	}
	if got := st.FindBlock(-5, 0); got != -1 {
		t.Fatalf("FindBlock miss = %d, want -1", got)
	}
}

func TestTaskGraphDependencyAccounting(t *testing.T) {
	for name, m := range testMats() {
		st, _ := analyze(t, m, ordering.NestedDissection, DefaultOptions())
		tg := BuildTaskGraph(st)
		// Each update's source blocks belong to SrcSn and target to the
		// block B_{i,k} with k = RowSn(BlkA), i = RowSn(BlkB).
		for ui := range tg.Updates {
			u := &tg.Updates[ui]
			a, b := &st.Blocks[u.BlkA], &st.Blocks[u.BlkB]
			tgt := &st.Blocks[u.Target]
			if a.Snode != u.SrcSn || b.Snode != u.SrcSn {
				t.Fatalf("%s: update %d sources not in SrcSn", name, ui)
			}
			if a.IsDiag() || b.IsDiag() {
				t.Fatalf("%s: update %d uses a diagonal block as source", name, ui)
			}
			if tgt.Snode != a.RowSn || tgt.RowSn != b.RowSn {
				t.Fatalf("%s: update %d target mismatch", name, ui)
			}
			if u.SrcSn >= tgt.Snode {
				t.Fatalf("%s: update %d flows backwards", name, ui)
			}
			if u.IsSyrk() != tgt.IsDiag() {
				t.Fatalf("%s: update %d syrk/diag mismatch", name, ui)
			}
		}
		// InUpdates sums match the update count.
		var sum int64
		for _, c := range tg.InUpdates {
			sum += int64(c)
		}
		if sum != int64(len(tg.Updates)) {
			t.Fatalf("%s: InUpdates sum %d != updates %d", name, sum, len(tg.Updates))
		}
		// UpdatesBySource covers each update once per distinct source.
		var srcRefs int64
		for _, l := range tg.UpdatesBySource {
			srcRefs += int64(len(l))
		}
		var want int64
		for ui := range tg.Updates {
			if tg.Updates[ui].IsSyrk() {
				want++
			} else {
				want += 2
			}
		}
		if srcRefs != want {
			t.Fatalf("%s: source refs %d != %d", name, srcRefs, want)
		}
		if tg.NumTasks() <= 0 {
			t.Fatalf("%s: no tasks", name)
		}
	}
}

// Update tasks per supernode: a supernode with q off-diagonal blocks must
// emit exactly q(q+1)/2 updates.
func TestUpdateCountFormula(t *testing.T) {
	m := gen.Laplace2D(12, 12)
	st, _ := analyze(t, m, ordering.NestedDissection, DefaultOptions())
	tg := BuildTaskGraph(st)
	perSn := make([]int, st.NumSupernodes())
	for ui := range tg.Updates {
		perSn[tg.Updates[ui].SrcSn]++
	}
	for k := 0; k < st.NumSupernodes(); k++ {
		q := len(st.SnodeBlocks(int32(k))) - 1
		if perSn[k] != q*(q+1)/2 {
			t.Fatalf("supernode %d: %d updates, want %d", k, perSn[k], q*(q+1)/2)
		}
	}
}

func TestMap2D(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 6, 8, 12, 16, 64} {
		m := NewMap2D(p)
		if m.P() != p {
			t.Fatalf("p=%d: grid %dx%d", p, m.Pr, m.Pc)
		}
		if m.Pr > m.Pc {
			t.Fatalf("p=%d: grid not row-minor %dx%d", p, m.Pr, m.Pc)
		}
		// Owners are within range and cyclic.
		for i := int32(0); i < 10; i++ {
			for k := int32(0); k < 10; k++ {
				o := m.Owner(i, k)
				if o < 0 || o >= p {
					t.Fatalf("owner out of range: %d", o)
				}
				if o != m.Owner(i+int32(m.Pr), k) || o != m.Owner(i, k+int32(m.Pc)) {
					t.Fatal("not block-cyclic")
				}
			}
		}
	}
	// Square grid for perfect squares.
	if m := NewMap2D(16); m.Pr != 4 || m.Pc != 4 {
		t.Fatalf("16 → %dx%d, want 4x4", m.Pr, m.Pc)
	}
	if m := NewMap2D(0); m.P() != 1 {
		t.Fatal("p=0 should clamp to 1")
	}
}

func TestMap2DBalance(t *testing.T) {
	// On a real structure, block ownership should spread across all
	// processes.
	m := gen.Laplace3D(5, 5, 5)
	st, _ := analyze(t, m, ordering.NestedDissection, Options{MaxSupernodeSize: 8})
	for _, p := range []int{2, 4, 8} {
		mp := NewMap2D(p)
		count := make([]int, p)
		for bi := range st.Blocks {
			count[mp.OwnerOf(&st.Blocks[bi])]++
		}
		for r, c := range count {
			if c == 0 {
				t.Fatalf("p=%d: rank %d owns no blocks (%v)", p, r, count)
			}
		}
	}
}

func TestAnalyzeEmptyMatrix(t *testing.T) {
	if _, _, err := Analyze(&matrix.SparseSym{N: 0, ColPtr: []int32{0}}, ordering.Natural, Options{}); err == nil {
		t.Fatal("expected ErrEmptyMatrix")
	}
}

// Property: for random matrices, Analyze produces a valid structure whose
// task graph satisfies the closure invariant (no panic) under varied
// options.
func TestAnalyzeProperty(t *testing.T) {
	f := func(seed int64, nRaw, dRaw, capRaw uint8, relax bool) bool {
		n := int(nRaw%30) + 1
		m := gen.RandomSPD(n, float64(dRaw%10)/12, seed)
		opt := Options{MaxSupernodeSize: int(capRaw % 9)} // 0 = uncapped
		if relax {
			opt.RelaxRatio = 0.4
		}
		st, _, err := Analyze(m, ordering.MinDegree, opt)
		if err != nil || st.Validate() != nil {
			return false
		}
		tg := BuildTaskGraph(st)
		return tg.NumTasks() >= st.NumSupernodes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// colCounts computes nnz per column of L (diagonal included) by symbolic
// elimination; it is the O(nnz(L)) reference implementation this file holds
// the production path (etree.Tree.ColCounts, the near-linear skeleton
// algorithm) against. Child structures are freed as soon as their parent
// consumes them, so peak memory tracks the elimination front, not nnz(L).
func colCounts(a *matrix.SparseSym, tree *etree.Tree) []int32 {
	n := a.N
	counts := make([]int32, n)
	structs := make([][]int32, n)
	first, next := tree.ChildLists()
	marker := make([]int32, n)
	for i := range marker {
		marker[i] = -1
	}
	for j := 0; j < n; j++ {
		jj := int32(j)
		marker[j] = jj
		col := []int32{}
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			if r := a.RowInd[p]; marker[r] != jj {
				marker[r] = jj
				col = append(col, r)
			}
		}
		for c := first[j]; c != -1; c = next[c] {
			for _, r := range structs[c] {
				if r == jj || marker[r] == jj {
					continue
				}
				marker[r] = jj
				col = append(col, r)
			}
			structs[c] = nil // free: consumed by this parent
		}
		counts[j] = int32(len(col)) + 1 // + diagonal
		structs[j] = col
	}
	return counts
}

// The production column counts (the skeleton algorithm in etree) must match
// the in-package elimination-based reference on every structure regime.
func TestColCountsSkeletonVsElimination(t *testing.T) {
	for name, m := range testMats() {
		st, pm := analyze(t, m, ordering.NestedDissection, DefaultOptions())
		ref := colCounts(pm, st.Tree)
		for j := 0; j < pm.N; j++ {
			if st.ColCount[j] != ref[j] {
				t.Fatalf("%s: ColCount[%d] = %d, reference %d", name, j, st.ColCount[j], ref[j])
			}
		}
	}
}

// One Analyze allocates a fixed number of arrays: the same bound holds from
// 1.5 k to 16 k vertices, in 2D and 3D. Before the analysis worked in place
// these took 18 307, 5 638 and 170 056 allocations — about 11 per vertex.
func TestAnalyzeAllocBudget(t *testing.T) {
	const budget = 400
	for _, in := range []struct {
		name string
		m    *matrix.SparseSym
	}{
		{"thermal2d/40x40", gen.Thermal2D(40, 40, 3, 1)},
		{"laplace3d/8x8x8", gen.Laplace3D(8, 8, 8)},
		{"thermal2d/128x128", gen.Thermal2D(128, 128, 6, 1)},
	} {
		allocs := testing.AllocsPerRun(3, func() {
			if _, _, err := Analyze(in.m, ordering.NestedDissection, DefaultOptions()); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: n=%d, %.0f allocs per Analyze", in.name, in.m.N, allocs)
		if allocs > budget {
			t.Errorf("%s: %.0f allocs per Analyze, budget %d", in.name, allocs, budget)
		}
	}
}

// Supernode row lists are views of one slab: in supernode order, back to
// back, each clipped to its own length so that growing one copies it out
// instead of overwriting the next.
func TestSupernodeRowsSlab(t *testing.T) {
	for name, m := range testMats() {
		for _, opt := range []Options{{}, DefaultOptions(), {MaxSupernodeSize: 2}, {RelaxRatio: 0.9}} {
			st, _ := analyze(t, m, ordering.NestedDissection, opt)
			for k := range st.Snodes {
				rows := st.Snodes[k].Rows
				if cap(rows) != len(rows) {
					t.Fatalf("%s opt=%+v: supernode %d rows have cap %d, len %d", name, opt, k, cap(rows), len(rows))
				}
				if k+1 == len(st.Snodes) {
					break
				}
				next := st.Snodes[k+1].Rows
				end := unsafe.Add(unsafe.Pointer(unsafe.SliceData(rows)), 4*len(rows))
				if end != unsafe.Pointer(unsafe.SliceData(next)) {
					t.Fatalf("%s opt=%+v: supernode %d rows do not start where supernode %d's end", name, opt, k+1, k)
				}
				first := next[0]
				grown := append(rows, -1)
				if next[0] != first {
					t.Fatalf("%s opt=%+v: append to supernode %d rows overwrote supernode %d", name, opt, k, k+1)
				}
				if &grown[0] == &rows[0] {
					t.Fatalf("%s opt=%+v: append to supernode %d rows did not reallocate", name, opt, k)
				}
			}
		}
	}
}

// TestPostorderedTreeIsRelabelledTree pins what orderAndPostorder relies on:
// the elimination tree of the postordered matrix is the ordered matrix's tree
// relabelled by the postorder (etree.Compute need not run twice), and
// permuting once by the composed permutation gives the twice-permuted matrix.
func TestPostorderedTreeIsRelabelledTree(t *testing.T) {
	mats := map[string]*matrix.SparseSym{
		"laplace3d": gen.Laplace3D(6, 5, 4),
		"thermal":   gen.Thermal2D(20, 20, 4, 3),
		"flan":      gen.Flan3D(3, 3, 3, 1),
		"bone":      gen.Bone3D(6, 5, 5, 0.3, 2),
		"random":    gen.RandomSPD(120, 0.05, 4),
	}
	for name, a := range mats {
		for _, ord := range []ordering.Kind{ordering.Natural, ordering.RCM, ordering.MinDegree, ordering.NestedDissection} {
			perm1, err := ordering.Compute(ord, a)
			if err != nil {
				t.Fatal(err)
			}
			a1, err := a.Permute(perm1)
			if err != nil {
				t.Fatal(err)
			}
			t1 := etree.Compute(a1)
			post := t1.Postorder()
			a2, err := a1.Permute(post)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(t1.Permute(post), etree.Compute(a2)) {
				t.Errorf("%s/%v: relabelled tree differs from the postordered matrix's tree", name, ord)
			}
			got, perm, tree, err := orderAndPostorder(a, ord)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, a2) || !reflect.DeepEqual(tree, etree.Compute(a2)) {
				t.Errorf("%s/%v: orderAndPostorder departs from order, permute, postorder, permute", name, ord)
			}
			once, err := a.Permute(perm)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(once, a2) {
				t.Errorf("%s/%v: one permutation by perm1∘post differs from two", name, ord)
			}
		}
	}
}

// BottomSubtrees returns closed, maximal, disjoint subtrees within the flop
// bound: Root and exactly its descendants, whose parent (if any) would take
// the sum over the bound. With the whole factorization as the bound every
// tree of the forest is one range; an incomplete structure gives none.
func TestBottomSubtrees(t *testing.T) {
	st, _ := analyze(t, gen.Thermal2D(48, 48, 3, 1), ordering.NestedDissection, DefaultOptions())
	size := make([]int64, len(st.Snodes))
	flop := make([]int64, len(st.Snodes))
	for k := range st.Snodes {
		size[k], flop[k] = 1, st.Snodes[k].Flop()
	}
	st.subtreeSums(size)
	st.subtreeSums(flop)
	all := func(int32) bool { return true }
	for _, limit := range []int64{1e4, 1e5, 1e6, st.FactorFlop} {
		ranges := st.BottomSubtrees(limit, 1, all)
		if len(ranges) == 0 {
			t.Fatalf("limit %d: no subtree", limit)
		}
		for i, s := range ranges {
			if i > 0 && s.First <= ranges[i-1].Root {
				t.Fatalf("limit %d: %v overlaps %v", limit, s, ranges[i-1])
			}
			if int64(s.Root-s.First+1) != size[s.Root] {
				t.Fatalf("limit %d: %v holds %d supernodes, the subtree %d", limit, s, s.Root-s.First+1, size[s.Root])
			}
			for k := s.First; k < s.Root; k++ {
				if p := st.SnParent[k]; p <= k || p > s.Root {
					t.Fatalf("limit %d: %v: supernode %d has parent %d", limit, s, k, p)
				}
			}
			if flop[s.Root] > limit {
				t.Fatalf("limit %d: %v weighs %d", limit, s, flop[s.Root])
			}
			if p := st.SnParent[s.Root]; p != -1 && flop[p] <= limit {
				t.Fatalf("limit %d: %v is not maximal", limit, s)
			}
		}
		if limit == st.FactorFlop {
			roots := 0
			for _, p := range st.SnParent {
				if p == -1 {
					roots++
				}
			}
			if len(ranges) != roots {
				t.Fatalf("whole-factorization bound: %d ranges, %d trees", len(ranges), roots)
			}
		}
	}
	if got := st.BottomSubtrees(st.FactorFlop, 1, func(k int32) bool { return k != 0 }); len(got) != 0 && got[0].First == 0 {
		t.Fatalf("supernode 0 rejected by keep, yet in %v", got[0])
	}
	ic, _, err := AnalyzeIC(gen.Laplace2D(8, 8), ordering.Natural, DefaultOptions(), ICOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := ic.BottomSubtrees(ic.FactorFlop, 1, all); got != nil {
		t.Fatalf("incomplete structure: %v, want none", got)
	}
}
