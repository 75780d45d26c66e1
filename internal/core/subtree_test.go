package core

import (
	"bytes"
	"fmt"
	"testing"

	"sympack/internal/gen"
	"sympack/internal/gpu"
	"sympack/internal/matrix"
	"sympack/internal/symbolic"
)

// TestSubtreeTasks pins how much of the task graph the engine folds into
// subtree tasks, and that folding leaves the protocol alone. The constants
// were recorded from the engine before subtree tasks existed, which ran
// every D, F and U as a task of its own:
//
//   - Thermal2D(64,64,4,2) at 1 rank × 1 worker: 17 259 owned tasks and
//     30 951 dependency decrements. Folded they must fall by an order of
//     magnitude (461 and 923 at subtreeFlop = 1e6);
//   - Laplace3D 10³ under MapSubtree at 4 ranks: 277 signals and 277 RMA
//     gets. Publishing a subtree's blocks sends what their D and F tasks
//     sent, so both stay (the owned tasks fall from 4 576 to 369).
//
// Under the 2D-cyclic map at 4 ranks a child and its parent share all their
// blocks' owners only when their indices agree modulo both grid
// dimensions, and on Laplace3D 10³ nothing folds: the owned tasks are the
// task graph's.
func TestSubtreeTasks(t *testing.T) {
	const (
		parentTasks   = 17259
		parentDecs    = 30951
		parentSignals = 277
		parentGets    = 277
	)
	thermal := gen.Thermal2D(64, 64, 4, 2)
	laplace := gen.Laplace3D(10, 10, 10)

	t.Run("thermal64-r1w1", func(t *testing.T) {
		f, err := Factorize(thermal, Options{Ranks: 1, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		tasks := f.Metrics.Value("sympack_core_tasks_owned")
		decs := f.Metrics.Value("sympack_core_dep_decrements_total")
		t.Logf("%g owned tasks (parent %d), %g dependency decrements (parent %d)", tasks, parentTasks, decs, parentDecs)
		if tasks > parentTasks/10 {
			t.Errorf("%g owned tasks, want at most a tenth of %d", tasks, parentTasks)
		}
		if decs > parentDecs/10 {
			t.Errorf("%g dependency decrements, want at most a tenth of %d", decs, parentDecs)
		}
	})

	t.Run("laplace10-2d-r4", func(t *testing.T) {
		f, err := Factorize(laplace, Options{Ranks: 4, Workers: 1, Mapping: Map2DCyclic})
		if err != nil {
			t.Fatal(err)
		}
		want := FanOut.TaskCount(symbolic.BuildTaskGraph(f.St))
		if got := f.Metrics.Value("sympack_core_tasks_owned"); got != float64(want) {
			t.Errorf("%g owned tasks, want the task graph's %d: something folded under the 2D-cyclic map", got, want)
		}
	})

	t.Run("laplace10-subtree-r4", func(t *testing.T) {
		f, err := Factorize(laplace, Options{Ranks: 4, Workers: 1, Mapping: MapSubtree})
		if err != nil {
			t.Fatal(err)
		}
		m := f.Metrics
		if got := m.Value("sympack_upcxx_rma_gets_total"); got != parentGets {
			t.Errorf("%g RMA gets, want %d", got, parentGets)
		}
		if rr := m.Value("sympack_core_rerequests_total"); rr != 0 {
			t.Errorf("%g re-requests without a fault", rr)
		}
		if got := m.Value("sympack_upcxx_signals_sent_total"); got != parentSignals {
			t.Errorf("%g signals, want %d", got, parentSignals)
		}
		if !folded(f) {
			t.Error("nothing folded under MapSubtree")
		}
	})

	// A subtree task runs one POTRF, one TRSM and one GEMM per supernode
	// pair. Run block by block, one kernel per block and per block pair,
	// this problem took 17 259 kernel calls.
	t.Run("thermal64-kernel-calls", func(t *testing.T) {
		const blockCalls = 17259
		f, err := Factorize(thermal, Options{Ranks: 1, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		var calls int64
		for _, n := range f.Stats.PerRank[0].CPU {
			calls += n
		}
		t.Logf("%d kernel calls (block by block: %d)", calls, blockCalls)
		if calls > blockCalls*6/10 {
			t.Errorf("%d kernel calls, want at most 0.6 × %d", calls, blockCalls)
		}
	})

	// Every range subtreeTasks selects, on every rank, is a closed subtree
	// within the flop bound whose blocks that rank owns.
	for _, c := range []struct {
		name  string
		ranks int
		kind  MappingKind
	}{
		{"r1", 1, Map2DCyclic},
		{"r4-2d", 4, Map2DCyclic},
		{"r4-subtree", 4, MapSubtree},
	} {
		t.Run("ranges-"+c.name, func(t *testing.T) {
			for _, a := range []struct {
				name string
				st   *symbolic.Structure
			}{{"thermal64", analyzed(t, thermal)}, {"laplace10", analyzed(t, laplace)}} {
				m := symbolic.NewBlockMap(c.kind, c.ranks, a.st)
				tg := symbolic.BuildTaskGraph(a.st)
				folded := 0
				for r := 0; r < c.ranks; r++ {
					ranges := subtreeTasks(a.st, m, r)
					for i, s := range ranges {
						if i > 0 && s.First <= ranges[i-1].Root {
							t.Fatalf("%s rank %d: range %v overlaps or precedes %v", a.name, r, s, ranges[i-1])
						}
						if err := checkSubtree(a.st, tg, m, r, s); err != nil {
							t.Fatalf("%s rank %d: range %v: %v", a.name, r, s, err)
						}
						folded += int(s.Root - s.First + 1)
					}
				}
				t.Logf("%s: %d of %d supernodes folded", a.name, folded, len(a.st.Snodes))
				if c.ranks > 1 && c.kind == Map2DCyclic && folded != 0 {
					t.Errorf("%s: %d supernodes folded under the 2D-cyclic map", a.name, folded)
				}
				if c.ranks == 1 && folded == 0 {
					t.Errorf("%s: nothing folded at one rank", a.name)
				}
			}
		})
	}
}

// TestSubtreeFoldBits checks that folding bottom subtrees into subtree
// tasks moves no bit of the factor: each case saves the factor with
// folding on and with it off (subtreeFlop = 0, which folds nothing) and
// compares the bytes. The cases cover both worker counts, the device path
// of every kernel (thresholds of 1) and MapSubtree at 4 ranks, where
// folded panel blocks are announced to other ranks.
func TestSubtreeFoldBits(t *testing.T) {
	th := gpu.Thresholds{Potrf: 1, Trsm: 1, Syrk: 1, Gemm: 1}
	opts := []struct {
		name string
		opt  Options
	}{
		{"r1w1", Options{Ranks: 1, Workers: 1}},
		{"r1w2", Options{Ranks: 1, Workers: 2}},
		{"gpu-th1", Options{Ranks: 1, Workers: 1, GPUsPerNode: 1, Thresholds: &th}},
		{"subtree-r4", Options{Ranks: 4, Workers: 1, Mapping: MapSubtree}},
	}
	mats := []struct {
		name string
		a    *matrix.SparseSym
	}{
		{"thermal64", gen.Thermal2D(64, 64, 4, 2)},
		{"laplace12", gen.Laplace3D(12, 12, 12)},
		{"flan10", gen.Flan3D(10, 10, 10, 1)},
	}
	save := func(t *testing.T, a *matrix.SparseSym, opt Options) ([]byte, *Factor) {
		t.Helper()
		f, err := Factorize(a, opt)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := f.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), f
	}
	for _, m := range mats {
		for _, o := range opts {
			t.Run(m.name+"-"+o.name, func(t *testing.T) {
				on, f := save(t, m.a, o.opt)
				if !folded(f) {
					t.Fatal("nothing folded")
				}
				defer func(v int64) { subtreeFlop = v }(subtreeFlop)
				subtreeFlop = 0
				off, f := save(t, m.a, o.opt)
				if folded(f) {
					t.Fatal("subtreeFlop = 0 still folded")
				}
				if !bytes.Equal(on, off) {
					t.Error("the folded factor differs from the unfolded one")
				}
			})
		}
	}
}

// folded reports whether a factorization scheduled fewer tasks than its
// task graph has: some subtree ran as one task.
func folded(f *Factor) bool {
	graph := f.Opt.Formulation.TaskCount(symbolic.BuildTaskGraph(f.St))
	return f.Metrics.Value("sympack_core_tasks_owned") < float64(graph)
}

// analyzed runs the default symbolic analysis.
func analyzed(t *testing.T, a *matrix.SparseSym) *symbolic.Structure {
	t.Helper()
	p, err := Analyze(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p.Structure()
}

// checkSubtree verifies a subtree task's range: its supernodes are Root and
// exactly Root's descendants, Root is not a root of the tree, there are at
// least subtreeMin of them, their flop is within subtreeFlop, every update
// into one of its blocks has its source inside, and rank owns every one of
// its blocks.
func checkSubtree(st *symbolic.Structure, tg *symbolic.TaskGraph, m symbolic.BlockMap, rank int, s symbolic.SubtreeRange) error {
	inside := func(k int32) bool { return s.First <= k && k <= s.Root }
	if s.Root-s.First+1 < subtreeMin {
		return fmt.Errorf("%d supernodes, want at least %d", s.Root-s.First+1, subtreeMin)
	}
	if st.SnParent[s.Root] == -1 {
		return fmt.Errorf("a whole tree folded")
	}
	var flop int64
	for k := range st.Snodes {
		par := st.SnParent[k]
		switch {
		case inside(int32(k)) && int32(k) != s.Root && !inside(par):
			return fmt.Errorf("supernode %d has its parent %d outside", k, par)
		case !inside(int32(k)) && par != -1 && inside(par):
			return fmt.Errorf("supernode %d outside has its parent %d inside", k, par)
		}
		if !inside(int32(k)) {
			continue
		}
		flop += st.Snodes[k].Flop()
		for _, b := range st.SnodeBlocks(int32(k)) {
			if owner := symbolic.OwnerOfBlock(m, &b); owner != rank {
				return fmt.Errorf("block %d is rank %d's", b.ID, owner)
			}
		}
	}
	if flop > subtreeFlop {
		return fmt.Errorf("%d flop, bound %g", flop, float64(subtreeFlop))
	}
	for _, u := range tg.Updates {
		if inside(st.Blocks[u.Target].Snode) && !inside(u.SrcSn) {
			return fmt.Errorf("update into block %d from supernode %d outside", u.Target, u.SrcSn)
		}
	}
	return nil
}
