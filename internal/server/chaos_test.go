package server

import (
	"fmt"
	"math"
	"net/http"
	"os"
	"strconv"
	"testing"
	"time"

	"sympack/internal/core"
	"sympack/internal/faults"
	"sympack/internal/gen"
	"sympack/internal/gpu"
	"sympack/internal/matrix"
)

// chaosSeeds mirrors the core chaos suite's seed set: a fixed trio for CI
// plus an optional extra from CHAOS_EXTRA_SEED for soak runs.
func chaosSeeds(t *testing.T) []int64 {
	t.Helper()
	seeds := []int64{1, 2, 3}
	if s := os.Getenv("CHAOS_EXTRA_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_EXTRA_SEED=%q: %v", s, err)
		}
		seeds = append(seeds, v)
	}
	return seeds
}

// serverStorm returns an aggressive all-server-classes plan: rates high
// enough that a dozen requests exercise every class, with a stall window
// long enough that injected cancellations land while the engine is
// actually running.
func serverStorm(seed int64) *faults.Plan {
	p := faults.ServerChaos(seed)
	p.Rate[faults.SlowClient] = 0.3
	p.Rate[faults.CanceledRequest] = 0.3
	p.Rate[faults.CacheThrash] = 0.3
	p.StallWindow = 2 * time.Millisecond
	return &p
}

// TestServerChaosGrid drives the full request pipeline under every server
// fault class at ranks {1,4} × the chaos seed set. The invariants:
//
//   - every response stays inside the documented status vocabulary — a
//     chaos storm may shed, cancel or time out requests but never turns
//     them into unexpected 5xx or panics;
//   - after the storm, every matrix factors and solves cleanly with a
//     small residual: an injected mid-flight cancellation never poisons a
//     cached Factor (the acceptance pin).
//
// Requests run sequentially, so the injector's per-request decision
// stream — and therefore the whole grid cell — is deterministic in the
// seed.
func TestServerChaosGrid(t *testing.T) {
	mats := []*matrix.SparseSym{
		gen.Laplace2D(6, 6),
		gen.Laplace2D(7, 5),
		gen.Laplace3D(4, 3, 3),
	}
	rhsFor := func(a *matrix.SparseSym) []float64 {
		b := make([]float64, a.N)
		for i := range b {
			b[i] = float64(i%5) + 1
		}
		return b
	}
	allowed := map[int]bool{
		http.StatusOK:              true,
		http.StatusTooManyRequests: true,
		StatusClientClosedRequest:  true,
		http.StatusGatewayTimeout:  true,
		http.StatusNotFound:        true, // solve raced a thrash or a canceled factor
	}

	for _, ranks := range []int{1, 4} {
		for _, seed := range chaosSeeds(t) {
			t.Run(fmt.Sprintf("r%d_seed%d", ranks, seed), func(t *testing.T) {
				solverChaos := faults.DefaultChaos(seed)
				s := startServer(t, Config{
					InflightCap: 2,
					QueueCap:    2,
					Chaos:       serverStorm(seed),
					SolverChaos: &solverChaos,
					Solver:      core.Options{Ranks: ranks, Workers: 2},
				})

				// The storm: factor+solve every matrix a few times over.
				factorIDs := map[string]string{}
				for round := 0; round < 2; round++ {
					for mi, a := range mats {
						var fr FactorResponse
						code, _ := post(t, s.Addr(), "/v1/factor",
							FactorRequest{Matrix: wire(a)}, &fr)
						if !allowed[code] {
							t.Fatalf("round %d matrix %d: factor status %d outside the vocabulary", round, mi, code)
						}
						if code == http.StatusOK {
							factorIDs[fr.Factor] = fr.Factor
							var sr SolveResponse
							scode, _ := post(t, s.Addr(), "/v1/solve",
								SolveRequest{Factor: fr.Factor, B: rhsFor(a)}, &sr)
							if !allowed[scode] {
								t.Fatalf("round %d matrix %d: solve status %d outside the vocabulary", round, mi, scode)
							}
							if scode == http.StatusOK {
								if res := core.ResidualNorm(a, sr.X, rhsFor(a)); res > 1e-10 {
									t.Fatalf("round %d matrix %d: storm residual %g", round, mi, res)
								}
							}
						}
					}
				}

				// The pin: after (and still under) chaos, every matrix is
				// recoverable — the injected cancellations left no corrupt
				// Factor behind. Retry a few times because chaos may cancel
				// the recovery attempts themselves.
				for mi, a := range mats {
					var lastCode int
					recovered := false
					for attempt := 0; attempt < 8 && !recovered; attempt++ {
						var fr FactorResponse
						lastCode, _ = post(t, s.Addr(), "/v1/factor",
							FactorRequest{Matrix: wire(a)}, &fr)
						if lastCode != http.StatusOK {
							continue
						}
						var sr SolveResponse
						lastCode, _ = post(t, s.Addr(), "/v1/solve",
							SolveRequest{Factor: fr.Factor, B: rhsFor(a)}, &sr)
						if lastCode != http.StatusOK {
							continue
						}
						if res := core.ResidualNorm(a, sr.X, rhsFor(a)); res > 1e-10 {
							t.Fatalf("matrix %d: recovery residual %g — cached Factor poisoned", mi, res)
						}
						recovered = true
					}
					if !recovered {
						t.Fatalf("matrix %d never recovered under chaos (last status %d)", mi, lastCode)
					}
				}
			})
		}
	}
}

// TestServerChaosInjectionDeterminism replays one grid cell twice and
// requires identical per-class injection tallies — the property that makes
// chaos failures reproducible from their seed.
func TestServerChaosInjectionDeterminism(t *testing.T) {
	run := func() [faults.NumClasses]int64 {
		s := startServer(t, Config{Chaos: serverStorm(7)})
		a := gen.Laplace2D(6, 6)
		for i := 0; i < 10; i++ {
			m := a.Clone()
			m.Val[0] += float64(i) // distinct factor keys
			post(t, s.Addr(), "/v1/factor", FactorRequest{Matrix: wire(m)}, nil)
		}
		return s.inj.Injected()
	}
	c1, c2 := run(), run()
	if c1 != c2 {
		t.Fatalf("injection tallies diverged across identical runs:\n%v\n%v", c1, c2)
	}
	var total int64
	for c := faults.Class(0); c < faults.NumClasses; c++ {
		if faults.IsServerClass(c) {
			total += c1[c]
		} else if c1[c] != 0 {
			t.Fatalf("non-server class %v injected %d times by a server-only plan", c, c1[c])
		}
	}
	if total == 0 {
		t.Fatal("storm plan injected nothing across 10 requests")
	}
}

// TestFactorSurvivesDeviceDeath pins the degradation the server relies on
// the engine for: with every device dying at first touch, each rank demotes
// itself to CPU kernels, every /v1/factor is a 200, and each factor solves
// b = A·1 to ones.
func TestFactorSurvivesDeviceDeath(t *testing.T) {
	th := gpu.Thresholds{Potrf: 1, Trsm: 1, Syrk: 1, Gemm: 1}
	devfail := &faults.Plan{Seed: 5}
	devfail.Rate[faults.DeviceFail] = 1
	s := startServer(t, Config{
		Solver:      core.Options{Ranks: 2, GPUsPerNode: 1, Thresholds: &th},
		SolverChaos: devfail,
	})
	a := gen.Laplace2D(9, 8)
	ones := make([]float64, a.N)
	for i := range ones {
		ones[i] = 1
	}
	for i := 0; i < 4; i++ {
		m := a.Clone()
		for k := range m.Val {
			m.Val[k] *= 1 + float64(i) // distinct factor keys
		}
		var fr FactorResponse
		if code, _ := post(t, s.Addr(), "/v1/factor", FactorRequest{Matrix: wire(m)}, &fr); code != http.StatusOK {
			t.Fatalf("request %d: factor status %d, want 200", i, code)
		}
		v, rel, ok := s.cache.get("f:" + fr.Factor)
		if !ok {
			t.Fatalf("request %d: factor %s not cached", i, fr.Factor)
		}
		demotions := v.(*core.Factor).Metrics.Value("sympack_gpu_demotions_total")
		rel()
		if demotions == 0 {
			t.Fatalf("request %d: no rank demoted; the devices never died", i)
		}
		var sr SolveResponse
		if code, _ := post(t, s.Addr(), "/v1/solve", SolveRequest{Factor: fr.Factor, B: m.MulVec(ones)}, &sr); code != http.StatusOK {
			t.Fatalf("request %d: solve status %d, want 200", i, code)
		}
		for j, x := range sr.X {
			if math.Abs(x-1) > 1e-10 {
				t.Fatalf("request %d: x[%d] = %.17g, want 1", i, j, x)
			}
		}
	}
}
