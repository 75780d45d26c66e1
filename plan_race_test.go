//go:build race

// Race-detector stress for a shared plan. The build tag keeps it out of
// ordinary runs; CI's -race job picks it up.
package sympack

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
)

// TestPlanConcurrentFactorizations: four goroutines factor different shifts
// of one pattern on one shared Analysis at GOMAXPROCS 4, each with two
// workers, so the plan is read by eight executor goroutines at once. Each
// factor must be the bits of a cold factorization of its matrix, and the
// race detector must see no write to anything the plan holds.
func TestPlanConcurrentFactorizations(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	a := Thermal2D(48, 48, 3, 5)
	opt := Options{Ranks: 1, Workers: 2}
	an, err := Analyze(a, opt)
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	mats := make([]*Matrix, n)
	cold := make([][]byte, n)
	for i := range mats {
		if mats[i], err = a.ShiftDiag(0.25 * float64(i+1)); err != nil {
			t.Fatal(err)
		}
		cold[i] = savedBits(t, func() (*Factor, error) { return Factorize(mats[i], opt) })
	}
	got := make([][]byte, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range mats {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 3 {
				f, err := an.Factorize(mats[i])
				if err != nil {
					errs[i] = err
					return
				}
				var buf bytes.Buffer
				if errs[i] = f.Save(&buf); errs[i] != nil {
					return
				}
				got[i] = buf.Bytes()
			}
		}()
	}
	wg.Wait()
	for i := range mats {
		if errs[i] != nil {
			t.Fatalf("shift %d: %v", i, errs[i])
		}
		if !bytes.Equal(got[i], cold[i]) {
			t.Errorf("shift %d: the concurrent factor differs from the cold one", i)
		}
	}
}
