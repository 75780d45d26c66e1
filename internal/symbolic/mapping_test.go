package symbolic

import (
	"testing"

	"sympack/internal/gen"
	"sympack/internal/matrix"
	"sympack/internal/ordering"
)

// subtreeMapByLists is the proportional mapping built the straightforward
// way: a child list per parent supernode, split from an explicit stack. It
// is the reference NewSubtreeMap must reproduce range for range.
func subtreeMapByLists(st *Structure, p int) (base, cnt []int32) {
	nsn := len(st.Snodes)
	base, cnt = make([]int32, nsn), make([]int32, nsn)
	sub := make([]int64, nsn)
	for k := range sub {
		nc := int64(st.Snodes[k].NCols())
		for _, b := range st.SnodeBlocks(int32(k)) {
			sub[k] += int64(b.NRows) * nc
		}
		sub[k] = max(sub[k], 1)
	}
	st.subtreeSums(sub)
	children := make([][]int32, nsn)
	var roots []int32
	for k, par := range st.SnParent {
		if par != -1 {
			children[par] = append(children[par], int32(k))
		} else {
			roots = append(roots, int32(k))
		}
	}
	type span struct {
		kids   []int32
		lo, hi int32
	}
	stack := []span{{roots, 0, int32(p)}}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		var total, acc int64
		for _, c := range s.kids {
			total += sub[c]
		}
		width := int64(s.hi - s.lo)
		for _, c := range s.kids {
			clo := s.lo + int32(acc*width/total)
			acc += sub[c]
			chi := max(s.lo+int32(acc*width/total), clo+1)
			base[c], cnt[c] = clo, chi-clo
			stack = append(stack, span{children[c], clo, chi})
		}
	}
	return base, cnt
}

func TestSubtreeMapMatchesChildLists(t *testing.T) {
	for _, c := range []struct {
		name string
		st   *Structure
	}{
		{"thermal64", analyzeDefault(t, gen.Thermal2D(64, 64, 4, 2))},
		{"laplace10", analyzeDefault(t, gen.Laplace3D(10, 10, 10))},
		{"flan6", analyzeDefault(t, gen.Flan3D(6, 6, 6, 1))},
	} {
		for _, p := range []int{1, 2, 3, 4, 7, 16, 64} {
			m := NewSubtreeMap(c.st, p)
			base, cnt := subtreeMapByLists(c.st, p)
			for k := range base {
				if m.base[k] != base[k] || m.cnt[k] != cnt[k] {
					t.Fatalf("%s p=%d supernode %d: range [%d,+%d), want [%d,+%d)",
						c.name, p, k, m.base[k], m.cnt[k], base[k], cnt[k])
				}
				if base[k] < 0 || base[k]+cnt[k] > int32(p) {
					t.Fatalf("%s p=%d supernode %d: range [%d,+%d) outside [0,%d)", c.name, p, k, base[k], cnt[k], p)
				}
			}
		}
	}
}

// TestSubtreeMapAllocs guards the construction's cost: a fixed number of
// arrays, not one child list per parent supernode. Thermal2D 256² has about
// 28 000 supernodes.
func TestSubtreeMapAllocs(t *testing.T) {
	st := analyzeDefault(t, gen.Thermal2D(256, 256, 12, 1))
	allocs := testing.AllocsPerRun(3, func() { NewBlockMap(MapSubtree, 4, st) })
	t.Logf("%d supernodes: %g allocations per map", len(st.Snodes), allocs)
	if allocs > 8 {
		t.Errorf("%g allocations per subtree map, want at most 8", allocs)
	}
}

// TestBlockMapOneRank checks that at one process every kind is the same
// single-rank map, built without allocating.
func TestBlockMapOneRank(t *testing.T) {
	st := analyzeDefault(t, gen.Laplace3D(6, 6, 6))
	for _, kind := range []MappingKind{MapSubtree, Map2DCyclic, Map1DCols} {
		for _, p := range []int{0, 1} {
			m := NewBlockMap(kind, p, st)
			if m.P() != 1 {
				t.Fatalf("%v p=%d: P() = %d", kind, p, m.P())
			}
			for bi := range st.Blocks {
				if o := OwnerOfBlock(m, &st.Blocks[bi]); o != 0 {
					t.Fatalf("%v p=%d: block %d on rank %d", kind, p, bi, o)
				}
			}
		}
		if a := testing.AllocsPerRun(10, func() { NewBlockMap(kind, 1, st) }); a != 0 {
			t.Errorf("%v: %g allocations for a one-rank map", kind, a)
		}
	}
}

// TestUnknownMappingIsSubtree checks that a kind outside the named ones is
// built as the map its String names: the subtree map.
func TestUnknownMappingIsSubtree(t *testing.T) {
	st := analyzeDefault(t, gen.Laplace3D(8, 8, 8))
	kind := MappingKind(9)
	if s := kind.String(); s != "subtree" {
		t.Fatalf("MappingKind(9).String() = %q, want subtree", s)
	}
	got, ok := NewBlockMap(kind, 4, st).(*SubtreeMap)
	if !ok {
		t.Fatalf("MappingKind(9) builds %T, want *SubtreeMap", NewBlockMap(kind, 4, st))
	}
	want := NewSubtreeMap(st, 4)
	for bi := range st.Blocks {
		if g, w := OwnerOfBlock(got, &st.Blocks[bi]), OwnerOfBlock(want, &st.Blocks[bi]); g != w {
			t.Fatalf("block %d on rank %d, want %d", bi, g, w)
		}
	}
}

func analyzeDefault(t *testing.T, a *matrix.SparseSym) *Structure {
	t.Helper()
	st, _ := analyze(t, a, ordering.NestedDissection, DefaultOptions())
	return st
}
