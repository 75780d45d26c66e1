package core

import (
	"fmt"
	"os"
	"testing"
	"time"

	"sympack/internal/des"
	"sympack/internal/faults"
	"sympack/internal/gen"
	"sympack/internal/gpu"
	"sympack/internal/machine"
	"sympack/internal/ordering"
	"sympack/internal/symbolic"
)

// This file is the conformance battery pinning the scheduling-variant space
// (DESIGN.md §13): every (formulation × mapping) pair is driven through the
// randomized SPD property grid, the chaos grid, and the DES sweep, and must
// hold the guarantees the fan-out/2D baseline earned. CI's variant-matrix
// job shards the battery by exporting CONFORMANCE_FORMULATION and/or
// CONFORMANCE_MAPPING; locally the full grid runs.

// conformanceVariants returns the variant grid, narrowed by the
// CONFORMANCE_FORMULATION / CONFORMANCE_MAPPING environment variables when
// set (CI shards the battery per formulation without a code change).
func conformanceVariants(t *testing.T) []Variant {
	t.Helper()
	vs := Variants()
	if s := os.Getenv("CONFORMANCE_FORMULATION"); s != "" {
		f, err := symbolic.ParseFormulation(s)
		if err != nil {
			t.Fatalf("CONFORMANCE_FORMULATION=%q: %v", s, err)
		}
		keep := vs[:0]
		for _, v := range vs {
			if v.Formulation == f {
				keep = append(keep, v)
			}
		}
		vs = keep
	}
	if s := os.Getenv("CONFORMANCE_MAPPING"); s != "" {
		m, err := symbolic.ParseMapping(s)
		if err != nil {
			t.Fatalf("CONFORMANCE_MAPPING=%q: %v", s, err)
		}
		keep := vs[:0]
		for _, v := range vs {
			if v.Mapping == m {
				keep = append(keep, v)
			}
		}
		vs = keep
	}
	if len(vs) == 0 {
		t.Fatal("variant filter selected nothing")
	}
	return vs
}

// TestConformanceGridShape pins the variant space itself: three
// formulations × three mappings, every pair present exactly once, with
// stable parseable names — the contract the CI matrix and the CLI flags
// are built on.
func TestConformanceGridShape(t *testing.T) {
	vs := Variants()
	if len(vs) != 9 {
		t.Fatalf("Variants() = %d points, want 9", len(vs))
	}
	seen := map[string]bool{}
	for _, v := range vs {
		if seen[v.String()] {
			t.Fatalf("duplicate variant %s", v)
		}
		seen[v.String()] = true
		f, err := symbolic.ParseFormulation(v.Formulation.String())
		if err != nil || f != v.Formulation {
			t.Fatalf("formulation %q does not round-trip: %v", v.Formulation, err)
		}
		m, err := symbolic.ParseMapping(v.Mapping.String())
		if err != nil || m != v.Mapping {
			t.Fatalf("mapping %q does not round-trip: %v", v.Mapping, err)
		}
	}
}

// TestConformanceProperty is the centerpiece: a randomized SPD grid factored
// by every variant at workers {1,2,4} × ranks {1,4}. Each grid point must
// solve to 1e-10 and be bit-identical to the variant's own sequential
// reference (ConformanceCheck), and that reference must in turn be
// bit-identical to the fan-out/2D baseline factor — the strongest no
// schedule-order-leak statement available: not merely reproducible per
// variant, but the same bytes no matter which formulation computed each
// update or which process owned each block. The first case runs once more
// with float32 storage (residual ceiling at single-precision roundoff):
// rounding a block when its D or F task finalises it must be as
// schedule-blind as the rest.
func TestConformanceProperty(t *testing.T) {
	type run struct {
		propCase
		base Options
		grid ConformanceGrid
	}
	var runs []run
	for _, c := range propCases(6, 20260808) {
		runs = append(runs, run{c, c.options(1, 1), ConformanceGrid{Seed: c.seed}})
	}
	fp32 := runs[0]
	fp32.base.Precision = PrecFP32
	fp32.grid.MaxResidual = 1e-5
	runs = append(runs, fp32)

	// Baselines are computed once, before the parallel variant subtests
	// fork: the canonical fan-out/2D sequential factor per run.
	baselines := make([]*Factor, len(runs))
	for ci, c := range runs {
		a := gen.RandomSPD(c.n, c.density, c.seed)
		f, err := Factorize(a, Variant{FanOut, Map2DCyclic}.Apply(c.base))
		if err != nil {
			t.Fatalf("case %d baseline: %v", ci, err)
		}
		baselines[ci] = f
	}

	for _, v := range conformanceVariants(t) {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			t.Parallel()
			for ci, c := range runs {
				a := gen.RandomSPD(c.n, c.density, c.seed)
				ref, err := ConformanceCheck(a, c.base, v, c.grid)
				if err != nil {
					t.Fatalf("case %d (n=%d d=%g sn=%d %s %s): %v", ci, c.n, c.density, c.maxSn, c.sched, c.base.Precision, err)
				}
				if err := SameFactor(baselines[ci], ref); err != nil {
					t.Fatalf("case %d: %s diverged from the fan-out/2d baseline: %v", ci, v, err)
				}
			}
		})
	}
}

// TestConformanceChaos crosses every variant with the signal-fault classes
// on a four-rank pool: the faulted run must recover to a factor that is
// bit-identical to the same variant's clean run — chaos may cost retries,
// never bits. The plans must actually fire (a non-empty FaultSummary), so a
// formulation that quietly stopped exercising the signal protocol would
// fail here rather than vacuously pass.
func TestConformanceChaos(t *testing.T) {
	a := gen.Laplace2D(9, 8)
	classes := []struct {
		name string
		c    faults.Class
		rate float64
	}{
		{"drop", faults.DropSignal, 0.3},
		{"dup", faults.DupSignal, 0.3},
		{"delay", faults.DelaySignal, 0.4},
	}
	for _, v := range conformanceVariants(t) {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			t.Parallel()
			clean, err := Factorize(a, v.Apply(Options{Ranks: 4, Workers: 2}))
			if err != nil {
				t.Fatalf("clean run: %v", err)
			}
			for _, tc := range classes {
				for _, seed := range []int64{1, 2} {
					f, err := Factorize(a, v.Apply(Options{
						Ranks:        4,
						Workers:      2,
						Faults:       planWith(seed, tc.c, tc.rate),
						StallTimeout: 20 * time.Second,
					}))
					if err != nil {
						t.Fatalf("%s seed %d: %v", tc.name, seed, err)
					}
					if FaultSummary(f.Metrics.Snapshot()) == "" {
						t.Fatalf("%s seed %d: plan injected nothing", tc.name, seed)
					}
					if err := SameFactor(clean, f); err != nil {
						t.Fatalf("%s seed %d: faulted run diverged from clean run: %v", tc.name, seed, err)
					}
					if r := distSolveCheck(t, a, f, seed); r > 1e-10 {
						t.Fatalf("%s seed %d: residual %g", tc.name, seed, r)
					}
				}
			}
		})
	}
}

// TestConformanceDES drives every variant through the discrete-event
// simulator: each variant must simulate to finite positive times, be
// bit-deterministic across repeated runs, and sweep cleanly through the
// strong-scaling grid. The formulation axis must be visible to the model —
// delivering formulations ship per-update contributions, so their modeled
// communication volume must differ from fan-out's on a multi-rank layout.
func TestConformanceDES(t *testing.T) {
	a := gen.Laplace2D(16, 16)
	st, _, err := symbolic.Analyze(a, ordering.NestedDissection, symbolic.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tg := symbolic.BuildTaskGraph(st)

	simulate := func(v Variant) des.Result {
		t.Helper()
		res, err := des.Simulate(st, tg, des.Config{
			Solver:       des.SymPACK,
			Nodes:        2,
			RanksPerNode: 4,
			GPUsPerNode:  2,
			Machine:      machine.Perlmutter(),
			Thresholds:   gpu.DefaultThresholds(),
			Formulation:  v.Formulation,
			Mapping:      v.Mapping,
		})
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		return res
	}

	fanOutBytes := map[MappingKind]int64{}
	for _, v := range conformanceVariants(t) {
		r1 := simulate(v)
		r2 := simulate(v)
		if r1.FactorSeconds <= 0 || r1.SolveSeconds <= 0 {
			t.Fatalf("%s: non-positive modeled times %+v", v, r1)
		}
		if r1 != r2 {
			t.Fatalf("%s: simulation not deterministic:\n  %+v\n  %+v", v, r1, r2)
		}
		if r1.CommBytes <= 0 {
			t.Fatalf("%s: no modeled communication on an 8-rank layout", v)
		}
		if v.Formulation == FanOut {
			fanOutBytes[v.Mapping] = r1.CommBytes
		} else if r1.CommBytes == fanOutBytes[v.Mapping] {
			t.Fatalf("%s: CommBytes %d identical to fan-out on the same mapping — contribution traffic not modeled",
				v, r1.CommBytes)
		}
	}

	// The sweep itself: a small strong-scaling grid per variant must
	// produce positive, reproducible points.
	for _, v := range conformanceVariants(t) {
		sweep := des.SweepConfig{
			Solver:      des.SymPACK,
			NodeCounts:  []int{1, 2},
			RPNChoices:  []int{2, 4},
			GPUsPerNode: 2,
			Machine:     machine.Perlmutter(),
			Thresholds:  gpu.DefaultThresholds(),
			Formulation: v.Formulation,
			Mapping:     v.Mapping,
		}
		p1, err := des.StrongScaling(st, tg, sweep)
		if err != nil {
			t.Fatalf("%s: sweep: %v", v, err)
		}
		p2, err := des.StrongScaling(st, tg, sweep)
		if err != nil {
			t.Fatalf("%s: sweep rerun: %v", v, err)
		}
		for i := range p1 {
			if p1[i].FactorSeconds <= 0 || p1[i].SolveSeconds <= 0 {
				t.Fatalf("%s nodes=%d: non-positive sweep point %+v", v, p1[i].Nodes, p1[i])
			}
			if p1[i] != p2[i] {
				t.Fatalf("%s nodes=%d: sweep not reproducible: %+v vs %+v", v, p1[i].Nodes, p1[i], p2[i])
			}
		}
	}
}

// TestConformanceTaskAccounting ties Options.Formulation to the engine's
// task ledger: the modeled task count (Formulation.TaskCount) must match
// what a real run executes, per formulation, on a problem with a known
// block census.
func TestConformanceTaskAccounting(t *testing.T) {
	a := gen.Laplace2D(9, 8)
	st, _, err := symbolic.Analyze(a, ordering.NestedDissection, symbolic.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tg := symbolic.BuildTaskGraph(st)
	for _, form := range symbolic.Formulations() {
		want := len(st.Blocks) + len(tg.Updates)
		if form.DeliversContributions() {
			want += len(tg.Updates)
		}
		if got := form.TaskCount(tg); got != want {
			t.Fatalf("%s: TaskCount = %d, want %d", form, got, want)
		}
	}
	if fmt.Sprint(symbolic.Formulations()) != "[fan-out fan-in fan-both]" {
		t.Fatalf("Formulations() = %v", symbolic.Formulations())
	}
}
