//go:build race

package ordering

import (
	"runtime"
	"sync"
	"testing"

	"sympack/internal/gen"
)

// Under the race detector: several dissections at once, each forking
// helpers at GOMAXPROCS 4, share nothing with each other and return the
// one-goroutine permutation.
func TestNestedDissectionConcurrentRace(t *testing.T) {
	m := gen.Thermal2D(128, 128, 6, 1)
	var want string
	withGOMAXPROCS(1, func() {
		perm, err := Compute(NestedDissection, m)
		if err != nil {
			t.Fatal(err)
		}
		want = permHash(perm)
	})
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const callers = 4
	got := make([]string, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if perm, err := Compute(NestedDissection, m); err == nil {
				got[i] = permHash(perm)
			}
		}(i)
	}
	wg.Wait()
	for i, h := range got {
		if h != want {
			t.Errorf("caller %d: permutation hash %q, want %q", i, h, want)
		}
	}
}
