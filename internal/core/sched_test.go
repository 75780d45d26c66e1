package core

import (
	"bytes"
	"errors"
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

// All scheduling policies must produce bit-identical factors: the policy
// changes execution order, never the mathematics — and the ordered-apply
// machinery pins the floating-point summation order, so "identical" here is
// exact, not within a tolerance.
func TestSchedulingPoliciesAgree(t *testing.T) {
	a := gen.Bone3D(6, 6, 6, 0.3, 4)
	var ref *Factor
	for _, pol := range []SchedulingPolicy{SchedFIFO, SchedLIFO, SchedCriticalPath} {
		f, err := Factorize(a, Options{Ranks: 4, Scheduling: pol})
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		if ref == nil {
			ref = f
			continue
		}
		for bid := range f.Data {
			for i := range f.Data[bid] {
				if math.Float64bits(f.Data[bid][i]) != math.Float64bits(ref.Data[bid][i]) {
					t.Fatalf("%v: block %d elem %d differs: %v vs %v",
						pol, bid, i, f.Data[bid][i], ref.Data[bid][i])
				}
			}
		}
	}
}

// TestPopOrdering exercises engine.pop directly, under every task
// formulation: for each policy, tasks pushed in a known order must pop in
// the policy's order, and — the historical bug this pins down — the
// critical-path order must be a strict total order independent of push
// order, not a first-max scan whose tie-break leaked the queue's memory
// layout. The delivering formulations add the apply kind to the ready set,
// so the tie-break chain (depth, kind, id) is checked over all four task
// kinds, not just the fan-out three.
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
			if len(all) < 10 {
				t.Fatalf("problem too small to exercise ordering: %d tasks", len(all))
			}

			drain := func(pol SchedulingPolicy, reversed bool) ([]task, *engine) {
				o := Options{Scheduling: pol, Workers: 1, Formulation: form}
				e := newEngine(nil, st, tg, nil, symbolic.NewMap2D(1), &o, nil, nil)
				if pol == SchedCriticalPath {
					e.chainDepth = chainDepths(st)
				}
				for i := range all {
					k := i
					if reversed {
						k = len(all) - 1 - i
					}
					e.push(all[k].kind, all[k].id)
				}
				out := make([]task, 0, len(all))
				for {
					tk, ok := e.pop()
					if !ok {
						break
					}
					out = append(out, tk)
				}
				return out, e
			}

			sameTask := func(x, y task) bool { return x.kind == y.kind && x.id == y.id }

			// FIFO pops in push order; LIFO in reverse push order.
			fifo, _ := drain(SchedFIFO, false)
			for i := range fifo {
				if !sameTask(fifo[i], all[i]) {
					t.Fatalf("FIFO pop %d = %+v, want %+v", i, fifo[i], all[i])
				}
			}
			lifo, _ := drain(SchedLIFO, false)
			for i := range lifo {
				want := all[len(all)-1-i]
				if !sameTask(lifo[i], want) {
					t.Fatalf("LIFO pop %d = %+v, want %+v", i, lifo[i], want)
				}
			}

			// Critical path: nonincreasing priority under the comparator —
			// depth descending, ties broken by kind (diag < factor < update
			// < apply) then id.
			cp, e := drain(SchedCriticalPath, false)
			for i := 1; i < len(cp); i++ {
				prev, cur := cp[i-1], cp[i]
				if e.before(cur, prev) {
					t.Fatalf("critical-path pop %d out of order: %+v before %+v", i, cur, prev)
				}
				if prev.depth == cur.depth && prev.kind == cur.kind && prev.id >= cur.id {
					t.Fatalf("tie-break violated at pop %d: %+v then %+v", i, prev, cur)
				}
			}
			// ... and the same total order no matter how tasks were pushed.
			cpRev, _ := drain(SchedCriticalPath, true)
			for i := range cp {
				if !sameTask(cp[i], cpRev[i]) {
					t.Fatalf("critical-path order depends on push order at %d: %+v vs %+v",
						i, cp[i], cpRev[i])
				}
			}
		})
	}
}

// TestRTQOrderProperty checks the typed heap against the definition of a
// priority queue: under random interleavings of pushes and pops, for every
// policy and with all four task kinds in flight, each pop returns the
// before-minimum of what a plain reference slice holds at that moment.
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

	for _, pol := range []SchedulingPolicy{SchedFIFO, SchedLIFO, SchedCriticalPath} {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			o := Options{Scheduling: pol, Workers: 1, Formulation: FanBoth}
			e := newEngine(nil, st, tg, nil, symbolic.NewMap2D(1), &o, nil, nil)
			if pol == SchedCriticalPath {
				e.chainDepth = chainDepths(st)
			}
			todo := append([]task(nil), all...)
			rng.Shuffle(len(todo), func(i, j int) { todo[i], todo[j] = todo[j], todo[i] })
			var ref []task
			for len(todo) > 0 || len(ref) > 0 {
				if len(todo) > 0 && (len(ref) == 0 || rng.Intn(3) > 0) {
					next := todo[len(todo)-1]
					todo = todo[:len(todo)-1]
					// push stamps the scheduling keys; the reference gets the same.
					next.seq = e.pushSeq
					if e.chainDepth != nil {
						next.depth = e.chainDepth[e.taskSupernode(next)]
					}
					e.push(next.kind, next.id)
					ref = append(ref, next)
					continue
				}
				first := 0
				for i := range ref {
					if e.before(ref[i], ref[first]) {
						first = i
					}
				}
				got, ok := e.pop()
				if !ok || got != ref[first] {
					t.Fatalf("%v seed %d: pop = %+v (ok=%v), want %+v", pol, seed, got, ok, ref[first])
				}
				ref = append(ref[:first], ref[first+1:]...)
			}
			if _, ok := e.pop(); ok {
				t.Fatalf("%v seed %d: queue not empty after draining", pol, seed)
			}
		}
	}
}

func TestSchedulingPoliciesSolve(t *testing.T) {
	a := gen.Thermal2D(20, 20, 2, 5)
	rng := rand.New(rand.NewSource(6))
	b := make([]float64, a.N)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	for _, pol := range []SchedulingPolicy{SchedFIFO, SchedLIFO, SchedCriticalPath} {
		f, err := Factorize(a, Options{Ranks: 3, Scheduling: pol})
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		x, err := f.SolveDistributed(b)
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		if r := ResidualNorm(a, x, b); r > 1e-10 {
			t.Fatalf("%v: residual %g", pol, r)
		}
	}
}

func TestChainDepths(t *testing.T) {
	a := gen.Laplace2D(8, 8)
	opt := Options{}.withDefaults()
	st, _, err := symbolic.Analyze(a, opt.Ordering, *opt.Symbolic)
	if err != nil {
		t.Fatal(err)
	}
	depth := chainDepths(st)
	for k := range st.Snodes {
		p := st.SnParent[k]
		if p == -1 {
			if depth[k] != 0 {
				t.Fatalf("root supernode %d has depth %d", k, depth[k])
			}
		} else if depth[k] != depth[p]+1 {
			t.Fatalf("supernode %d depth %d, parent %d depth %d", k, depth[k], p, depth[p])
		}
	}
}

func TestSchedulingPolicyString(t *testing.T) {
	for _, pol := range []SchedulingPolicy{SchedFIFO, SchedLIFO, SchedCriticalPath} {
		if pol.String() == "policy?" {
			t.Fatalf("missing name for %d", pol)
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

	// Disabled watchdog is a no-op.
	rt3, _ := upcxx.NewRuntime(upcxx.Config{Ranks: 1, Machine: machine.Perlmutter()})
	stop3 := startWatchdog(rt3, &p2, -1, func() error { return nil })
	stop3()
	if rt3.ShouldAbort() {
		t.Fatal("disabled watchdog aborted")
	}
}
