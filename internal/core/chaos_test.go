package core

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"sympack/internal/faults"
	"sympack/internal/gen"
	"sympack/internal/gpu"
	"sympack/internal/matrix"
	"sympack/internal/metrics"
)

// chaosSeeds returns the seed set of the chaos suite. CHAOS_EXTRA_SEED adds
// one more without a code change (CI's race job runs seed 404 that way).
func chaosSeeds(t *testing.T) []int64 {
	seeds := []int64{1, 2, 3, 101, 202, 303}
	if s := os.Getenv("CHAOS_EXTRA_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_EXTRA_SEED=%q: %v", s, err)
		}
		seeds = append(seeds, v)
	}
	return seeds
}

// planWith builds a plan injecting a single fault class.
func planWith(seed int64, c faults.Class, rate float64) *faults.Plan {
	p := &faults.Plan{Seed: seed}
	p.Rate[c] = rate
	return p
}

// distSolveCheck runs the distributed solve (which shares the factor's
// fault plan through a restricted injector) and returns the residual.
func distSolveCheck(t *testing.T, a *matrix.SparseSym, f *Factor, seed int64) float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	xTrue := make([]float64, a.N)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := a.MulVec(xTrue)
	x, err := f.SolveDistributed(b)
	if err != nil {
		t.Fatal(err)
	}
	return ResidualNorm(a, x, b)
}

// TestChaosMatrix is the acceptance grid: every fault class, injected at an
// aggressive rate, across seeds and rank counts, must leave both the factor
// and the distributed solve numerically exact. Transient faults never
// hard-abort; recovery is the protocol's job, not the caller's.
func TestChaosMatrix(t *testing.T) {
	t.Parallel()
	a := gen.Laplace2D(9, 8)
	th := gpu.Thresholds{Potrf: 1, Trsm: 1, Syrk: 1, Gemm: 1}
	cases := []struct {
		name    string
		c       faults.Class
		rate    float64
		gpus    int
		subtree bool // add MapSubtree at 4 ranks
	}{
		{"drop", faults.DropSignal, 0.3, 0, true},
		{"dup", faults.DupSignal, 0.3, 0, true},
		{"delay", faults.DelaySignal, 0.4, 0, true},
		{"transfer", faults.TransientTransfer, 0.3, 0, true},
		{"oom", faults.TransientOOM, 0.5, 1, false},
		{"stall", faults.RankStall, 0.02, 0, false},
	}
	type layout struct {
		name  string
		ranks int
		kind  MappingKind
	}
	// The workers axis crosses every fault class with helper goroutines:
	// recovery must hold when the rank goroutine's polling races helpers
	// executing tasks, not just when the rank runs alone. The MapSubtree
	// layout puts subtree tasks on every rank, whose blocks reach the ranks
	// computing the updates that leave them through the faulted signals.
	for _, tc := range cases {
		layouts := []layout{{"p1", 1, Map2DCyclic}, {"p4", 4, Map2DCyclic}, {"p8", 8, Map2DCyclic}}
		if tc.subtree {
			layouts = append(layouts, layout{"p4-subtree", 4, MapSubtree})
		}
		for _, seed := range chaosSeeds(t) {
			for _, l := range layouts {
				for _, workers := range []int{1, 4} {
					t.Run(fmt.Sprintf("%s/seed%d/%s/w%d", tc.name, seed, l.name, workers), func(t *testing.T) {
						opt := Options{
							Ranks:        l.ranks,
							Workers:      workers,
							Mapping:      l.kind,
							Faults:       planWith(seed, tc.c, tc.rate),
							StallTimeout: 20 * time.Second,
						}
						if tc.gpus > 0 {
							opt.GPUsPerNode = tc.gpus
							opt.Thresholds = &th
						}
						f, err := Factorize(a, opt)
						if err != nil {
							t.Fatalf("factorize under %s faults: %v", tc.name, err)
						}
						if l.kind == MapSubtree && !folded(f) {
							t.Fatal("no subtree task under MapSubtree")
						}
						if r := distSolveCheck(t, a, f, seed); r > 1e-10 {
							t.Fatalf("residual %g under %s faults", r, tc.name)
						}
					})
				}
			}
		}
	}
}

// TestChaosFormulationMatrix crosses the chaos grid with the task
// formulation axis: the contribution-delivering formulations route extra
// payloads (per-update contribution buffers) through the same resilient
// announce/poll/re-request protocol, so a faulted run must land on exactly
// the clean run's factor bits at every rank count — including ranks=1,
// where self-delivery bypasses the wire entirely. At the transfer-exhaust
// rate a get runs out of retries often enough that the engine's recovery
// from a failed fetch (count it, re-request it in a later round, fetch
// again) runs on every seed at four ranks; one rank fetches nothing.
func TestChaosFormulationMatrix(t *testing.T) {
	a := gen.Laplace2D(9, 8)
	classes := []struct {
		name string
		c    faults.Class
		rate float64
	}{
		{"drop", faults.DropSignal, 0.3},
		{"dup", faults.DupSignal, 0.3},
		{"delay", faults.DelaySignal, 0.4},
		{"transfer", faults.TransientTransfer, 0.3},
		{"transfer-exhaust", faults.TransientTransfer, 0.8},
	}
	for _, form := range []Formulation{FanOut, FanBoth} {
		form := form
		t.Run(form.String(), func(t *testing.T) {
			t.Parallel()
			for _, ranks := range []int{1, 4} {
				clean, err := Factorize(a, Options{
					Ranks: ranks, Workers: 2, Formulation: form,
				})
				if err != nil {
					t.Fatalf("p%d: clean run: %v", ranks, err)
				}
				for _, tc := range classes {
					for _, seed := range chaosSeeds(t) {
						f, err := Factorize(a, Options{
							Ranks:        ranks,
							Workers:      2,
							Formulation:  form,
							Faults:       planWith(seed, tc.c, tc.rate),
							StallTimeout: 20 * time.Second,
						})
						if err != nil {
							t.Fatalf("%s/p%d/seed%d: %v", tc.name, ranks, seed, err)
						}
						requireSameFactor(t, clean, f,
							fmt.Sprintf("%s faults, p%d seed %d vs clean run", tc.name, ranks, seed))
						if tc.name == "transfer-exhaust" {
							failed := f.Metrics.Value("sympack_core_fetch_failures_total")
							if (ranks > 1) != (failed > 0) {
								t.Fatalf("%s/p%d/seed%d: %v fetch failures", tc.name, ranks, seed, failed)
							}
						}
						if r := distSolveCheck(t, a, f, seed); r > 1e-10 {
							t.Fatalf("%s/p%d/seed%d: residual %g", tc.name, ranks, seed, r)
						}
					}
				}
			}
		})
	}
}

// TestChaosAllClassesCombined piles every recoverable class into one plan,
// with four workers per rank so every recovery path also runs concurrently.
func TestChaosAllClassesCombined(t *testing.T) {
	a := gen.Laplace2D(9, 8)
	th := gpu.Thresholds{Potrf: 1, Trsm: 1, Syrk: 1, Gemm: 1}
	for _, seed := range chaosSeeds(t) {
		p := faults.DefaultChaos(seed)
		f, err := Factorize(a, Options{
			Ranks: 4, Workers: 4, GPUsPerNode: 1, Thresholds: &th,
			Faults:       &p,
			StallTimeout: 20 * time.Second,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if r := distSolveCheck(t, a, f, seed); r > 1e-10 {
			t.Fatalf("seed %d: residual %g", seed, r)
		}
	}
}

// TestChaosLostSignalRecovery drops the majority of announcements on a
// multi-rank run and requires the job to finish through the re-request
// protocol — observable retries, not a watchdog abort. Some seed must
// observe a re-request, and a seed that re-requests must see a redelivery.
func TestChaosLostSignalRecovery(t *testing.T) {
	t.Parallel()
	a := gen.Laplace2D(9, 8)
	var sawReRequest bool
	for _, seed := range chaosSeeds(t) {
		f, err := Factorize(a, Options{
			Ranks:        4,
			Faults:       planWith(seed, faults.DropSignal, 0.6),
			StallTimeout: 30 * time.Second,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if f.Metrics.Value("sympack_upcxx_signals_dropped_total") == 0 {
			t.Fatalf("seed %d: 0.6 drop rate injected nothing", seed)
		}
		if f.Metrics.Value("sympack_core_rerequests_total") > 0 {
			sawReRequest = true
			if f.Metrics.Value("sympack_upcxx_redeliveries_total") == 0 {
				t.Fatalf("seed %d: re-requests without redeliveries: %s",
					seed, FaultSummary(f.Metrics.Snapshot()))
			}
		}
		if r := distSolveCheck(t, a, f, seed); r > 1e-10 {
			t.Fatalf("seed %d: residual %g", seed, r)
		}
	}
	if !sawReRequest {
		t.Fatal("no seed exercised the re-request protocol at 0.6 drop rate")
	}
}

// TestChaosWatchdogLostSignalTaxonomy makes loss genuinely irrecoverable
// (every RPC dropped, including re-requests) and checks the watchdog's
// structured diagnosis: ErrStalled for the abort class, ErrLostSignal for
// the cause, and a health report naming the waiting ranks.
func TestChaosWatchdogLostSignalTaxonomy(t *testing.T) {
	a := gen.Laplace2D(9, 8)
	_, err := Factorize(a, Options{
		Ranks:        4,
		Faults:       planWith(1, faults.DropSignal, 1.0),
		StallTimeout: 300 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("total signal loss must stall the factorization")
	}
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled in chain", err)
	}
	if !errors.Is(err, ErrLostSignal) {
		t.Fatalf("err = %v, want ErrLostSignal in chain", err)
	}
	if !strings.Contains(err.Error(), "deps=") {
		t.Fatalf("diagnosis lacks the per-rank health report: %v", err)
	}
}

// TestChaosDeviceFailureDemotesToCPU kills every device at first touch; the
// job must finish on CPU kernels — even under FallbackError, which only
// guards genuine capacity OOM — and count the demotion.
func TestChaosDeviceFailureDemotesToCPU(t *testing.T) {
	a := gen.Laplace2D(9, 8)
	th := gpu.Thresholds{Potrf: 1, Trsm: 1, Syrk: 1, Gemm: 1}
	for _, fb := range []gpu.FallbackPolicy{gpu.FallbackCPU, gpu.FallbackError} {
		f, err := Factorize(a, Options{
			Ranks: 2, RanksPerNode: 2, GPUsPerNode: 1,
			Thresholds:   &th,
			Fallback:     fb,
			Faults:       planWith(5, faults.DeviceFail, 1.0),
			StallTimeout: 20 * time.Second,
		})
		if err != nil {
			t.Fatalf("fallback=%v: mid-run device death must demote, got %v", fb, err)
		}
		if f.Metrics.Value("sympack_gpu_demotions_total") == 0 {
			t.Fatalf("fallback=%v: no demotion recorded: %s", fb, FaultSummary(f.Metrics.Snapshot()))
		}
		if e := reconstructError(t, f, a); e > 1e-8 {
			t.Fatalf("fallback=%v: reconstruction error %g after demotion", fb, e)
		}
	}
}

// TestChaosTransientOOMNeverAborts injects transient allocation failures at
// rate 1 — every attempt fails, exhausting the retry budget — under
// FallbackError. Transient faults must fall back to the CPU silently; only
// genuine capacity OOM may abort.
func TestChaosTransientOOMNeverAborts(t *testing.T) {
	a := gen.Laplace2D(9, 8)
	th := gpu.Thresholds{Potrf: 1, Trsm: 1, Syrk: 1, Gemm: 1}
	f, err := Factorize(a, Options{
		Ranks: 2, RanksPerNode: 2, GPUsPerNode: 1,
		Thresholds:   &th,
		Fallback:     gpu.FallbackError,
		Faults:       planWith(9, faults.TransientOOM, 1.0),
		StallTimeout: 20 * time.Second,
	})
	if err != nil {
		t.Fatalf("transient OOM must not abort under FallbackError: %v", err)
	}
	if f.Metrics.Value("sympack_gpu_alloc_retries_total") == 0 {
		t.Fatalf("no alloc retries recorded: %s", FaultSummary(f.Metrics.Snapshot()))
	}
	if e := reconstructError(t, f, a); e > 1e-8 {
		t.Fatalf("reconstruction error %g", e)
	}
}

// TestChaosGenuineOOMStillAborts guards the other side of the policy: with
// injection active but a truly undersized device, FallbackError must still
// abort — resilience must not swallow real capacity errors.
func TestChaosGenuineOOMStillAborts(t *testing.T) {
	a := gen.Flan3D(2, 2, 3, 1)
	th := gpu.Thresholds{Potrf: 1, Trsm: 1, Syrk: 1, Gemm: 1}
	_, err := Factorize(a, Options{
		Ranks: 2, RanksPerNode: 2, GPUsPerNode: 1,
		DeviceCapacity: 8,
		Thresholds:     &th,
		Fallback:       gpu.FallbackError,
		Faults:         planWith(3, faults.DelaySignal, 0.2),
		StallTimeout:   20 * time.Second,
	})
	if err == nil {
		t.Fatal("genuine OOM under FallbackError must abort even with chaos on")
	}
	if errors.Is(err, ErrTransient) {
		t.Fatalf("genuine OOM misclassified as transient: %v", err)
	}
}

// TestChaosDeterministicCounters runs the same seeded single-rank plan
// twice; with one rank and one worker the decision stream is fully ordered,
// so the injection counters — the whole fault line — must match exactly.
// (Workers is pinned to 1:
// the factor itself is deterministic under any pool size, but the *order*
// in which concurrent workers consult the injector is not, so counter
// equality is only guaranteed sequentially.)
func TestChaosDeterministicCounters(t *testing.T) {
	a := gen.Laplace2D(9, 8)
	th := gpu.Thresholds{Potrf: 1, Trsm: 1, Syrk: 1, Gemm: 1}
	run := func() string {
		f, err := Factorize(a, Options{
			Ranks: 1, Workers: 1, GPUsPerNode: 1, Thresholds: &th,
			Faults:       planWith(11, faults.TransientOOM, 0.3),
			StallTimeout: 20 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		return FaultSummary(f.Metrics.Snapshot())
	}
	s1, s2 := run(), run()
	if s1 != s2 {
		t.Fatalf("same seed diverged: %q vs %q", s1, s2)
	}
	if !strings.Contains(s1, "alloc-retries=") {
		t.Fatalf("0.3 OOM rate injected nothing: %q", s1)
	}
}

// TestFaultSummary pins the fault line: empty on a perfect network, the
// non-zero rows of the name table in table order otherwise.
func TestFaultSummary(t *testing.T) {
	reg := metrics.NewRegistry()
	if got := FaultSummary(reg.Snapshot()); got != "" {
		t.Fatalf("empty registry: %q", got)
	}
	reg.Counter("sympack_core_rerequests_total", "").Add(1)
	reg.Counter("sympack_upcxx_signals_dropped_total", "").Add(2)
	reg.Counter("sympack_upcxx_signals_sent_total", "").Add(7) // not a fault row
	if got, want := FaultSummary(reg.Snapshot()), "dropped=2 re-requests=1"; got != want {
		t.Fatalf("fault line %q, want %q", got, want)
	}
}
