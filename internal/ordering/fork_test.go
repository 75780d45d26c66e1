package ordering

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"runtime"
	"testing"

	"sympack/internal/gen"
)

// permHash is the first 8 bytes of SHA-256 over the permutation written as
// little-endian int32s.
func permHash(perm []int32) string {
	buf := make([]byte, 4*len(perm))
	for i, v := range perm {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(v))
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:8])
}

// withGOMAXPROCS runs f with runtime.GOMAXPROCS set to p and restores the
// previous value afterwards.
func withGOMAXPROCS(p int, f func()) {
	old := runtime.GOMAXPROCS(p)
	defer runtime.GOMAXPROCS(old)
	f()
}

// The nested-dissection permutation does not depend on how many helper
// goroutines order the halves: these hashes were recorded before any
// dissection ran concurrently, and hold at one, two and eight Ps.
func TestNestedDissectionPermutationPinned(t *testing.T) {
	hashes := []string{"2187047e6a3cdb81", "ea364ed0357fe451", "44c53735bf3501ed", "4942df204a5bdb6a"}
	for i, c := range pinnedInputs() {
		for _, p := range []int{1, 2, 8} {
			withGOMAXPROCS(p, func() {
				perm, err := Compute(NestedDissection, c.m)
				if err != nil {
					t.Fatal(err)
				}
				if got := permHash(perm); got != hashes[i] {
					t.Errorf("%s at GOMAXPROCS %d: permutation hash %s, want %s", c.name, p, got, hashes[i])
				}
			})
		}
	}
}

// The four pinned problems, for the pinned-hash test and the benchmark.
func pinnedInputs() []namedMatrix {
	return []namedMatrix{
		{"thermal2d/256x256", gen.Thermal2D(256, 256, 12, 1)},
		{"thermal2d/96x96", gen.Thermal2D(96, 96, 4, 1)},
		{"flan/14x14x14", gen.Flan3D(14, 14, 14, 1)},
		{"laplace3d/24x24x24", gen.Laplace3D(24, 24, 24)},
	}
}

// BenchmarkNestedDissection times Compute(NestedDissection) on the pinned
// problems; -cpu 1,2 compares one goroutine with a forked dissection.
func BenchmarkNestedDissection(b *testing.B) {
	for _, in := range pinnedInputs() {
		b.Run(in.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Compute(NestedDissection, in.m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
