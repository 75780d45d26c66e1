package core

import (
	"testing"

	"sympack/internal/gen"
	"sympack/internal/symbolic"
)

// TestSegmentOwners checks where the distributed solve keeps supernode k's
// vector segment: under the subtree map with k's diagonal block, so a deep
// subtree's segments sit on the rank that holds its blocks; under the 2D
// and 1D maps on rank k mod P.
func TestSegmentOwners(t *testing.T) {
	a := gen.Laplace3D(10, 10, 10)
	for _, mp := range []MappingKind{MapSubtree, Map2DCyclic, Map1DCols} {
		for _, p := range []int{2, 3, 4, 7} {
			f, err := Factorize(a, Options{Ranks: p, Mapping: mp})
			if err != nil {
				t.Fatal(err)
			}
			e := f.distSolve().solvers[0]
			m := symbolic.NewBlockMap(mp, p, f.St)
			moved := 0
			for k := range f.St.Snodes {
				want := k % p
				if mp == MapSubtree {
					want = m.Owner(int32(k), int32(k))
				}
				if got := e.segOwner(int32(k)); got != want {
					t.Fatalf("%v p=%d: segment %d on rank %d, want %d", mp, p, k, got, want)
				}
				if want != k%p {
					moved++
				}
			}
			if mp == MapSubtree && moved == 0 {
				t.Errorf("p=%d: every segment on rank k mod P under the subtree map", p)
			}
		}
	}
}
