package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"sympack/internal/gen"
	"sympack/internal/machine"
	"sympack/internal/symbolic"
	"sympack/internal/trace"
	"sympack/internal/upcxx"
)

// TestPopOrdering exercises engine.pop directly, under every task
// formulation: every task of the problem, pushed in a known order, must pop
// in that order. The delivering formulations add the apply kind to the
// ready set, and a subtree task joins every run, so all five task kinds
// pass through the queue.
func TestPopOrdering(t *testing.T) {
	a := gen.Laplace2D(6, 5)
	base := Options{}.withDefaults()
	sym := *base.Symbolic
	sym.MaxSupernodeSize = 3 // several supernodes at equal chain depth
	st, _, err := symbolic.Analyze(a, base.Ordering, sym)
	if err != nil {
		t.Fatal(err)
	}
	tg := symbolic.BuildTaskGraph(st)

	for _, form := range symbolic.Formulations() {
		form := form
		t.Run(form.String(), func(t *testing.T) {
			var all []task
			for bi := range st.Blocks {
				b := &st.Blocks[bi]
				all = append(all, task{kind: taskFor(b), id: b.ID})
			}
			for ui := range tg.Updates {
				all = append(all, task{kind: taskUpdate, id: int32(ui)})
			}
			if form.DeliversContributions() {
				for ui := range tg.Updates {
					all = append(all, task{kind: taskApply, id: int32(ui)})
				}
			}
			all = append(all, task{kind: taskSubtree, id: 0})
			if len(all) < 10 {
				t.Fatalf("problem too small to exercise ordering: %d tasks", len(all))
			}

			o := Options{Workers: 1, Formulation: form}
			e := newEngine(nil, st, tg, nil, symbolic.NewMap2D(1), &o, nil)
			for _, tk := range all {
				e.push(tk.kind, tk.id)
			}
			for i, want := range all {
				got, ok := e.pop()
				if !ok || got != want {
					t.Fatalf("pop %d = %+v (ok=%v), want %+v", i, got, ok, want)
				}
			}
			if tk, ok := e.pop(); ok {
				t.Fatalf("queue not empty after draining: popped %+v", tk)
			}
		})
	}
}

// TestRTQOrderProperty checks the head-index queue against a reference
// FIFO: under random interleavings of pushes and pops, with all four task
// kinds in flight, each pop returns the oldest task the reference holds at
// that moment.
func TestRTQOrderProperty(t *testing.T) {
	a := gen.Laplace2D(6, 5)
	base := Options{}.withDefaults()
	sym := *base.Symbolic
	sym.MaxSupernodeSize = 3
	st, _, err := symbolic.Analyze(a, base.Ordering, sym)
	if err != nil {
		t.Fatal(err)
	}
	tg := symbolic.BuildTaskGraph(st)
	var all []task
	for bi := range st.Blocks {
		all = append(all, task{kind: taskFor(&st.Blocks[bi]), id: int32(bi)})
	}
	for ui := range tg.Updates {
		all = append(all, task{kind: taskUpdate, id: int32(ui)}, task{kind: taskApply, id: int32(ui)})
	}

	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		o := Options{Workers: 1, Formulation: FanBoth}
		e := newEngine(nil, st, tg, nil, symbolic.NewMap2D(1), &o, nil)
		todo := append([]task(nil), all...)
		rng.Shuffle(len(todo), func(i, j int) { todo[i], todo[j] = todo[j], todo[i] })
		var ref []task
		for len(todo) > 0 || len(ref) > 0 {
			if len(todo) > 0 && (len(ref) == 0 || rng.Intn(3) > 0) {
				next := todo[len(todo)-1]
				todo = todo[:len(todo)-1]
				e.push(next.kind, next.id)
				ref = append(ref, next)
				continue
			}
			got, ok := e.pop()
			if !ok || got != ref[0] {
				t.Fatalf("seed %d: pop = %+v (ok=%v), want %+v", seed, got, ok, ref[0])
			}
			ref = ref[1:]
		}
		if _, ok := e.pop(); ok {
			t.Fatalf("seed %d: queue not empty after draining", seed)
		}
	}
}

// Both mappings must produce identical factors and working solves; the 1D
// map exists only as the performance comparison of §3.3.
func TestMappingKindsAgree(t *testing.T) {
	a := gen.Flan3D(2, 2, 3, 4)
	ref, err := Factorize(a, Options{Ranks: 4, Mapping: Map2DCyclic})
	if err != nil {
		t.Fatal(err)
	}
	f, err := Factorize(a, Options{Ranks: 4, Mapping: Map1DCols})
	if err != nil {
		t.Fatal(err)
	}
	for bid := range f.Data {
		for i := range f.Data[bid] {
			if d := math.Abs(f.Data[bid][i] - ref.Data[bid][i]); d > 1e-9 {
				t.Fatalf("mapping changed numerics: block %d differs by %g", bid, d)
			}
		}
	}
	rng := rand.New(rand.NewSource(7))
	b := make([]float64, a.N)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x, err := f.SolveDistributed(b)
	if err != nil {
		t.Fatal(err)
	}
	if r := ResidualNorm(a, x, b); r > 1e-10 {
		t.Fatalf("1d-mapped solve residual %g", r)
	}
}

func TestMappingKindString(t *testing.T) {
	if Map2DCyclic.String() == "" || Map1DCols.String() == "" {
		t.Fatal("mapping names")
	}
}

func TestFactorizationTracing(t *testing.T) {
	rec := trace.New()
	a := gen.Laplace2D(10, 10)
	f, err := Factorize(a, Options{Ranks: 3, Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	// One event per task: D per supernode, F per off-diagonal block, U per
	// update.
	want := f.Stats.Supernodes + (f.Stats.Blocks - f.Stats.Supernodes) + f.Stats.Updates
	if rec.Len() != want {
		t.Fatalf("trace has %d events, want %d", rec.Len(), want)
	}
	sum := rec.Summary()
	kinds := map[string]bool{}
	for _, s := range sum {
		kinds[s.Kind] = true
	}
	for _, k := range []string{"D", "F", "U"} {
		if !kinds[k] {
			t.Fatalf("missing kind %s in %v", k, sum)
		}
	}
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty trace output")
	}
	if len(rec.RankUtilization()) == 0 {
		t.Fatal("no utilization data")
	}

	// An update's event covers its kernel, which runs at the update's turn
	// in its target's canonical order — not at the pop, which may only mark
	// the update arrived — or inside its subtree task. So at 1 × 1 every
	// update is recorded exactly once and each target's U events come in
	// ascending update index. At one rank the bottom subtrees run as subtree
	// tasks; the problem is large enough (2.7 Mflop, 461 tasks) for the
	// updates leaving them into the top separators to be popped out of turn.
	base := Options{}.withDefaults()
	st, pa, err := symbolic.Analyze(gen.Thermal2D(64, 64, 4, 2), base.Ordering, *base.Symbolic)
	if err != nil {
		t.Fatal(err)
	}
	tg := symbolic.BuildTaskGraph(st)
	rec = trace.New()
	f1, err := FactorizeAnalyzed(st, pa, Options{Ranks: 1, Workers: 1, Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	// Even one worker pops updates out of turn in FIFO order, so this run
	// also covers the deferred path: the turn holder computes them later.
	if parked := f1.Metrics.Value("sympack_core_updates_parked_total"); parked == 0 {
		t.Fatal("no update popped out of turn at 1 rank × 1 worker: the deferred apply path went unexercised")
	}
	// Subtree tasks record their kernels as the D, F and U tasks they
	// replace, on the lane that ran them: one event per kernel still.
	if got, want := rec.Len(), st.NumBlocks()+len(tg.Updates); got != want {
		t.Fatalf("1 × 1: trace has %d events, want %d", got, want)
	}
	seen := make([]int, len(tg.Updates))
	last := make([]int32, len(st.Blocks)) // by target: last update index recorded + 1
	for _, ev := range rec.Events() {
		if ev.Kind != "U" {
			continue
		}
		var ui int32
		if _, err := fmt.Sscanf(ev.Detail, "upd=%d", &ui); err != nil {
			t.Fatalf("U event detail %q: %v", ev.Detail, err)
		}
		seen[ui]++
		tgt := tg.Updates[ui].Target
		if ui < last[tgt] {
			t.Fatalf("target %d: update %d recorded after update %d", tgt, ui, last[tgt]-1)
		}
		last[tgt] = ui + 1
	}
	for ui, n := range seen {
		if n != 1 {
			t.Fatalf("update %d recorded %d times, want once", ui, n)
		}
	}
}

// The watchdog must trip on a stalled runtime and stay quiet on a live one.
func TestWatchdog(t *testing.T) {
	rt, err := upcxx.NewRuntime(upcxx.Config{Ranks: 1, Machine: machine.Perlmutter()})
	if err != nil {
		t.Fatal(err)
	}
	var progress atomic.Int64
	stop := startWatchdog(rt, &progress, 10*time.Millisecond, func() error { return errors.New("diag") })
	defer stop()
	time.Sleep(40 * time.Millisecond)
	if !rt.ShouldAbort() {
		t.Fatal("watchdog did not trip on stalled progress")
	}
	if !errors.Is(rt.Err(), ErrStalled) {
		t.Fatalf("err = %v", rt.Err())
	}

	// A progressing counter must not trip.
	rt2, _ := upcxx.NewRuntime(upcxx.Config{Ranks: 1, Machine: machine.Perlmutter()})
	var p2 atomic.Int64
	stop2 := startWatchdog(rt2, &p2, 15*time.Millisecond, func() error { return nil })
	for i := 0; i < 6; i++ {
		p2.Add(1)
		time.Sleep(8 * time.Millisecond)
	}
	stop2()
	if rt2.ShouldAbort() {
		t.Fatal("watchdog tripped despite progress")
	}

	// There is no disabled mode: a non-positive timeout means the default.
	for _, d := range []time.Duration{0, -1} {
		if got := (Options{StallTimeout: d}).withDefaults().StallTimeout; got != 30*time.Second {
			t.Errorf("StallTimeout %v resolves to %v, want the 30s default", d, got)
		}
	}
}
