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
			e := newEngine(nil, &Plan{st: st, tg: tg}, &layout{m2d: symbolic.NewMap2D(1)}, nil, &o, nil)
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
		e := newEngine(nil, &Plan{st: st, tg: tg}, &layout{m2d: symbolic.NewMap2D(1)}, nil, &o, nil)
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
	f, err := Factorize(a, Options{Ranks: 3, Mapping: Map2DCyclic, Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	// One event per task: D per supernode, F per off-diagonal block, U per
	// update (nothing folds under the 2D map at 3 ranks).
	want := f.Stats.Supernodes + (f.Stats.Blocks - f.Stats.Supernodes) + f.Stats.Updates
	if rec.Len() != want {
		t.Fatalf("trace has %d events, want %d", rec.Len(), want)
	}
	// Under the default subtree map the bottom subtrees fold, and a subtree
	// task records one event per kernel it runs.
	folded := trace.New()
	if _, err := Factorize(a, Options{Ranks: 3, Trace: folded}); err != nil {
		t.Fatal(err)
	}
	if folded.Len() != 180 {
		t.Fatalf("default map: trace has %d events, want 180", folded.Len())
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

	// An update is applied by its own task — a U task under fan-out, an A
	// task under fan-in/fan-both, whose U task computes it — which starts
	// only once the update before it into the same target is applied
	// (passTurn), or inside its subtree task. So at one worker or four
	// every update is applied exactly once and each target's apply events
	// come in ascending update index. At one rank the bottom subtrees run
	// as subtree tasks; the problem is large enough (2.7 Mflop, 461 tasks)
	// for updates leaving them into the top separators to be readied by
	// their predecessor rather than by their sources.
	base := Options{}.withDefaults()
	st, pa, err := symbolic.Analyze(gen.Thermal2D(64, 64, 4, 2), base.Ordering, *base.Symbolic)
	if err != nil {
		t.Fatal(err)
	}
	tg := symbolic.BuildTaskGraph(st)
	// A subtree task records its kernels: a D and an F per supernode,
	// labelled sn=k, and a U per (source, target) supernode pair, labelled
	// sn=k->p, for each ancestor p inside the subtree. Every other task
	// records one event.
	subtrees := subtreeTasks(st, symbolic.NewBlockMap(base.Mapping, 1, st), 0)
	in := make([]int32, len(st.Snodes)) // by supernode: its subtree's root + 1, or 0
	for _, s := range subtrees {
		for k := s.First; k <= s.Root; k++ {
			in[k] = s.Root + 1
		}
	}
	want = 0
	for k := range st.Snodes {
		blks := st.SnodeBlocks(int32(k))
		if in[k] == 0 {
			want += len(blks)
			continue
		}
		want++ // POTRF
		if len(blks) > 1 {
			want++ // TRSM
		}
		for _, b := range blks[1:] {
			if b.RowSn < in[k] {
				want++ // GEMM into b.RowSn
			}
		}
	}
	updates := 0 // outside subtrees
	for _, u := range tg.Updates {
		if in[st.Blocks[u.Target].Snode] == 0 {
			updates++
		}
	}
	for _, form := range symbolic.Formulations() {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%v-w%d", form, workers), func(t *testing.T) {
				rec := trace.New()
				f1, err := FactorizeAnalyzed(st, pa, Options{Ranks: 1, Workers: workers, Formulation: form, Trace: rec})
				if err != nil {
					t.Fatal(err)
				}
				// Even one worker has updates whose sources are in before
				// their turn comes, so this run covers the chain.
				if form == FanOut && workers == 1 {
					if parked := f1.Metrics.Value("sympack_core_updates_parked_total"); parked == 0 {
						t.Fatal("no update readied by its predecessor at 1 rank × 1 worker: that path went unexercised")
					}
				}
				checkApplyOrder(t, rec, st, tg, in, form, want, updates)
			})
		}
	}
}

// checkApplyOrder checks a one-rank trace of st's factorization under form,
// in[k] being the root + 1 of supernode k's subtree task (0 outside one):
// it holds blockEvents events of D, F and subtree tasks, and one event per
// update outside the subtrees (of which there are updates), two under
// fan-in/fan-both; every update is applied exactly once, by its own event
// or by the pair event of its supernodes, and computed once by a U event
// under fan-in/fan-both; and each target — a block for an apply event, a
// supernode for a pair event — records them in ascending order: update
// index, or source supernode.
func checkApplyOrder(t *testing.T, rec *trace.Recorder, st *symbolic.Structure, tg *symbolic.TaskGraph, in []int32, form Formulation, blockEvents, updates int) {
	t.Helper()
	apply, want := "U", blockEvents+updates
	if form.DeliversContributions() {
		apply, want = "A", want+updates
	}
	if got := rec.Len(); got != want {
		t.Fatalf("trace has %d events, want %d", got, want)
	}
	seen := make([]int, len(tg.Updates))     // by update: applies recorded
	computed := make([]int, len(tg.Updates)) // by update: U events under fan-in/fan-both
	last := make([]int32, len(st.Blocks))    // by target block: last update index applied + 1
	pairs := map[[2]int32]int{}              // by (source, target) supernode: events recorded
	lastSrc := make([]int32, len(st.Snodes))
	for _, ev := range rec.Events() {
		if ev.Kind != "U" && ev.Kind != "A" {
			continue
		}
		var src, tgt int32
		if _, err := fmt.Sscanf(ev.Detail, "sn=%d->%d", &src, &tgt); err == nil {
			if ev.Kind != "U" || in[src] == 0 || in[tgt] != in[src] || tgt <= src {
				t.Fatalf("pair event %s %q outside a subtree", ev.Kind, ev.Detail)
			}
			if src < lastSrc[tgt] {
				t.Fatalf("target supernode %d: source %d recorded after source %d", tgt, src, lastSrc[tgt]-1)
			}
			lastSrc[tgt] = src + 1
			pairs[[2]int32{src, tgt}]++
			continue
		}
		var ui int32
		if _, err := fmt.Sscanf(ev.Detail, "upd=%d", &ui); err != nil {
			t.Fatalf("%s event detail %q: %v", ev.Kind, ev.Detail, err)
		}
		if ev.Kind != apply {
			computed[ui]++
			continue
		}
		seen[ui]++
		bt := tg.Updates[ui].Target
		if ui < last[bt] {
			t.Fatalf("target %d: update %d applied after update %d", bt, ui, last[bt]-1)
		}
		last[bt] = ui + 1
	}
	for ui, u := range tg.Updates {
		tsn := st.Blocks[u.Target].Snode
		if in[tsn] != 0 {
			seen[ui] += pairs[[2]int32{u.SrcSn, tsn}]
		} else if form.DeliversContributions() && computed[ui] != 1 {
			t.Fatalf("update %d computed %d times, want once", ui, computed[ui])
		}
		if seen[ui] != 1 {
			t.Fatalf("update %d applied %d times, want once", ui, seen[ui])
		}
	}
}

// The watchdog must trip on a stalled runtime and stay quiet on a live one.
// Neither half races the scheduler: the stall half waits for the trip up to
// a generous deadline, and the progress half's counter advances on every
// sample, so no sleep of the test goroutine can look like a stall.
func TestWatchdog(t *testing.T) {
	const deadline = 5 * time.Second
	// waitFor polls cond every millisecond until it holds or the deadline
	// passes, and reports whether it held.
	waitFor := func(cond func() bool) bool {
		for end := time.Now().Add(deadline); !cond(); {
			if time.Now().After(end) {
				return false
			}
			time.Sleep(time.Millisecond)
		}
		return true
	}
	rt, err := upcxx.NewRuntime(upcxx.Config{Ranks: 1, Machine: machine.Perlmutter()})
	if err != nil {
		t.Fatal(err)
	}
	var progress atomic.Int64
	stop := startWatchdog(rt, progress.Load, 10*time.Millisecond, func() error { return errors.New("diag") })
	defer stop()
	if !waitFor(rt.ShouldAbort) {
		t.Fatal("watchdog did not trip on stalled progress")
	}
	if !errors.Is(rt.Err(), ErrStalled) {
		t.Fatalf("err = %v", rt.Err())
	}

	// A progressing counter must not trip. The watchdog's first call reads
	// the starting value, and each later one is a sample; stop after three.
	rt2, _ := upcxx.NewRuntime(upcxx.Config{Ranks: 1, Machine: machine.Perlmutter()})
	var p2 atomic.Int64
	stop2 := startWatchdog(rt2, func() int64 { return p2.Add(1) }, 15*time.Millisecond, func() error { return nil })
	sampled := waitFor(func() bool { return p2.Load() >= 4 })
	stop2()
	if !sampled {
		t.Fatalf("watchdog sampled progress %d times in %v, want 3", p2.Load()-1, deadline)
	}
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
