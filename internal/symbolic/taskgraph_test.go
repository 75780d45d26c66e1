package symbolic

import (
	"testing"

	"sympack/internal/gen"
	"sympack/internal/matrix"
	"sympack/internal/ordering"
)

// arrowheadMatrix builds an SPD arrowhead with the dense row last: columns
// 0..n-2 couple only to the final row, so natural-ordered elimination
// produces no fill, one off-diagonal block per leading column, and every
// update is a SYRK onto the final diagonal block.
func arrowheadMatrix(t *testing.T, n int) *matrix.SparseSym {
	t.Helper()
	c := matrix.NewCOO(n)
	for i := 0; i < n; i++ {
		c.Add(i, i, float64(n)+1)
	}
	for i := 0; i < n-1; i++ {
		c.Add(n-1, i, -1)
	}
	s, err := c.ToSym()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// tridiagMatrix builds the SPD second-difference matrix: eliminating column
// j updates only entry (j+1, j+1), again fill-free under natural ordering.
func tridiagMatrix(t *testing.T, n int) *matrix.SparseSym {
	t.Helper()
	c := matrix.NewCOO(n)
	for i := 0; i < n; i++ {
		c.Add(i, i, 4)
	}
	for i := 0; i < n-1; i++ {
		c.Add(i+1, i, -1)
	}
	s, err := c.ToSym()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestTaskGraphCountsPerFormulation pins the task census of the three
// formulations on hand-checked structures. All matrices are analyzed with
// natural ordering and scalar supernodes (MaxSupernodeSize=1), so the block
// partition is exactly the scalar structure of L and the counts below can
// be verified on paper:
//
//   - arrowhead n=5: no fill; columns 0..3 each carry one off-diagonal
//     block into row 4, so 5+4 = 9 blocks and one SYRK update per leading
//     column (4 updates, all targeting the last diagonal block).
//   - tridiagonal n=6: no fill; 5 off-diagonal blocks, 5 SYRK updates,
//     each targeting the next diagonal block.
//   - 3×3 grid Laplacian: fill-in appears (e.g. eliminating vertex 0
//     couples its neighbors 1 and 3); the scalar structure of L has 29
//     nonzeros → 29 blocks, with 37 ordered source-pairs → 37 updates.
//
// Every formulation runs the same D/F/U tasks (blocks + updates); the
// delivering formulations add one apply task per update, so their count
// exceeds fan-out's by exactly len(Updates).
func TestTaskGraphCountsPerFormulation(t *testing.T) {
	cases := []struct {
		name    string
		a       *matrix.SparseSym
		snodes  int
		blocks  int
		updates int
		syrk    int
	}{
		{"arrowhead5", arrowheadMatrix(t, 5), 5, 9, 4, 4},
		{"tridiag6", tridiagMatrix(t, 6), 6, 11, 5, 5},
		{"grid3x3", gen.Laplace2D(3, 3), 9, 29, 37, 20},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, _, err := Analyze(tc.a, ordering.Natural, Options{MaxSupernodeSize: 1})
			if err != nil {
				t.Fatal(err)
			}
			tg := BuildTaskGraph(st)

			if got := len(st.Snodes); got != tc.snodes {
				t.Fatalf("snodes = %d, want %d", got, tc.snodes)
			}
			if got := len(st.Blocks); got != tc.blocks {
				t.Fatalf("blocks = %d, want %d", got, tc.blocks)
			}
			if got := len(tg.Updates); got != tc.updates {
				t.Fatalf("updates = %d, want %d", got, tc.updates)
			}
			syrk := 0
			for i := range tg.Updates {
				if tg.Updates[i].IsSyrk() {
					syrk++
				}
			}
			if syrk != tc.syrk {
				t.Fatalf("syrk updates = %d, want %d", syrk, tc.syrk)
			}
			if got, want := tg.NumTasks(), tc.blocks+tc.updates; got != want {
				t.Fatalf("NumTasks = %d, want %d", got, want)
			}

			// Per-formulation executed-task counts: fan-out runs one task
			// per block and update; fan-in and fan-both add one apply task
			// per delivered contribution.
			for _, form := range Formulations() {
				want := tc.blocks + tc.updates
				if form.DeliversContributions() {
					want += tc.updates
				}
				if got := form.TaskCount(tg); got != want {
					t.Fatalf("%s: TaskCount = %d, want %d", form, got, want)
				}
			}

			// Dependency bookkeeping: UpdatesByTarget is the per-target
			// incoming update census, so its lengths sum to the update count.
			var inSum int
			for _, l := range tg.UpdatesByTarget {
				inSum += len(l)
			}
			if inSum != tc.updates {
				t.Fatalf("sum of UpdatesByTarget lengths = %d, want %d", inSum, tc.updates)
			}
		})
	}
}

// TestTaskGraphComputeBlockRouting pins where each formulation executes an
// update: fan-out at the target's owner, fan-in at the owner of B_{i,j}
// (the left operand), fan-both at the owner of B_{k,j} (the transposed
// operand) — and for SYRK updates the two source routes coincide.
func TestTaskGraphComputeBlockRouting(t *testing.T) {
	st, _, err := Analyze(gen.Laplace2D(3, 3), ordering.Natural, Options{MaxSupernodeSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	tg := BuildTaskGraph(st)
	var sawGemm bool
	for i := range tg.Updates {
		u := &tg.Updates[i]
		if got := FanOut.ComputeBlock(u); got != u.Target {
			t.Fatalf("update %d: fan-out computes at block %d, want target %d", i, got, u.Target)
		}
		if got := FanIn.ComputeBlock(u); got != u.BlkB {
			t.Fatalf("update %d: fan-in computes at block %d, want BlkB %d", i, got, u.BlkB)
		}
		if got := FanBoth.ComputeBlock(u); got != u.BlkA {
			t.Fatalf("update %d: fan-both computes at block %d, want BlkA %d", i, got, u.BlkA)
		}
		if u.IsSyrk() && FanIn.ComputeBlock(u) != FanBoth.ComputeBlock(u) {
			t.Fatalf("update %d: SYRK source routes diverge", i)
		}
		if !u.IsSyrk() {
			sawGemm = true
			if u.BlkA == u.Target || u.BlkB == u.Target {
				t.Fatalf("update %d: GEMM source aliases its target", i)
			}
		}
	}
	if !sawGemm {
		t.Fatal("grid problem produced no GEMM updates; routing untested")
	}
	if FanOut.DeliversContributions() {
		t.Fatal("fan-out must apply in place, not deliver contributions")
	}
	for _, form := range []Formulation{FanIn, FanBoth} {
		if !form.DeliversContributions() {
			t.Fatalf("%s must deliver contributions", form)
		}
	}
}

// TestTaskGraphUpdatesBySource checks the fan-out index: every update is
// listed under each of its distinct source blocks exactly once, and under
// nothing else.
func TestTaskGraphUpdatesBySource(t *testing.T) {
	for _, a := range []*matrix.SparseSym{arrowheadMatrix(t, 5), gen.Laplace2D(3, 3)} {
		st, _, err := Analyze(a, ordering.Natural, Options{MaxSupernodeSize: 1})
		if err != nil {
			t.Fatal(err)
		}
		tg := BuildTaskGraph(st)
		refs := make(map[int32]int, len(tg.Updates))
		for b := range tg.UpdatesBySource {
			for _, ui := range tg.UpdatesBySource[b] {
				u := &tg.Updates[ui]
				if int32(b) != u.BlkA && int32(b) != u.BlkB {
					t.Fatalf("update %d listed under non-source block %d", ui, b)
				}
				refs[ui]++
			}
		}
		for ui := range tg.Updates {
			want := 2
			if tg.Updates[ui].IsSyrk() {
				want = 1
			}
			if refs[int32(ui)] != want {
				t.Fatalf("update %d listed %d times, want %d", ui, refs[int32(ui)], want)
			}
		}
	}
}

// TestTaskGraphUpdatesByTarget checks the canonical apply order: each
// block's list holds exactly the updates targeting it, ascending — for
// exact and incomplete (IC) structures alike, where the update count is
// below the pair count the lists are carved for.
func TestTaskGraphUpdatesByTarget(t *testing.T) {
	a := gen.Laplace2D(7, 6)
	exact, _, err := Analyze(a, ordering.NestedDissection, Options{MaxSupernodeSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	ic, _, err := AnalyzeIC(a, ordering.NestedDissection, Options{MaxSupernodeSize: 2}, ICOptions{Level: 0})
	if err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]*Structure{"exact": exact, "ic0": ic} {
		tg := BuildTaskGraph(st)
		if len(tg.Updates) == 0 {
			t.Fatalf("%s: no updates", name)
		}
		listed := 0
		for b, l := range tg.UpdatesByTarget {
			for i, ui := range l {
				if tg.Updates[ui].Target != int32(b) {
					t.Fatalf("%s: update %d listed under block %d, targets %d", name, ui, b, tg.Updates[ui].Target)
				}
				if i > 0 && l[i-1] >= ui {
					t.Fatalf("%s: block %d list not ascending at %d", name, b, i)
				}
			}
			listed += len(l)
		}
		if listed != len(tg.Updates) {
			t.Fatalf("%s: %d updates listed by target, want %d", name, listed, len(tg.Updates))
		}
	}
}
