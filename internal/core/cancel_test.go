package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"sympack/internal/faults"
	"sympack/internal/gen"
	"sympack/internal/machine"
	"sympack/internal/ordering"
	"sympack/internal/symbolic"
)

func TestFactorizeCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a := gen.Laplace2D(6, 6)
	f, err := Factorize(a, Options{Context: ctx})
	if f != nil || !errors.Is(err, ErrCanceled) {
		t.Fatalf("Factorize with pre-canceled context: f=%v err=%v, want ErrCanceled", f, err)
	}
}

// TestFactorizeDeadlineMidRun cancels a deliberately slowed factorization
// mid-flight: every loop must stop at its next task-pull boundary, so the
// call returns ErrCanceled long before the stall-injected run would have
// finished. The rank loop and the helper loop both carry checks, so ranks
// with and without helpers are exercised, as is a multi-rank job where only
// one rank needs to detect the cancellation for the abort to fan out.
func TestFactorizeDeadlineMidRun(t *testing.T) {
	a := gen.Laplace2D(16, 16)
	// Rate-1 stalls of 2ms on every runtime operation make the full run
	// take tens of seconds — if cancellation failed, the generous elapsed
	// bound below would still trip.
	plan := planWith(1, faults.RankStall, 1)
	plan.StallWindow = 2 * time.Millisecond
	// Stalls are injected in Progress(), which only the rank goroutine
	// calls — once per task it pulls. A rank without helpers is therefore
	// slowed on every task, and multi-rank jobs are slowed because their
	// dependencies flow through the stalled polls; a single rank with
	// helpers would not be (the helpers drain the RTQ unstalled), so
	// workerLoop's check is covered by the r2 cases.
	for _, tc := range []struct{ ranks, workers int }{
		{1, 1}, {2, 2}, {2, 4},
	} {
		t.Run(fmt.Sprintf("r%dw%d", tc.ranks, tc.workers), func(t *testing.T) {
			// The deadline expires before the first cross-rank
			// announcement can be delivered (delivery rides a Progress
			// call, which the plan stalls for 2ms), so no variant can
			// outrun it to completion.
			ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
			defer cancel()
			start := machine.WallNow()
			f, err := Factorize(a, Options{
				Ranks:   tc.ranks,
				Workers: tc.workers,
				Faults:  plan,
				Context: ctx,
			})
			elapsed := machine.WallSince(start)
			if f != nil || !errors.Is(err, ErrCanceled) {
				t.Fatalf("f=%v err=%v, want ErrCanceled", f, err)
			}
			if elapsed > 5*time.Second {
				t.Fatalf("cancellation took %v, want prompt return after the 1ms deadline", elapsed)
			}
		})
	}
}

// TestCanceledRunLeavesAnalysisReusable pins the cache-consistency contract
// sympackd relies on: a factorization aborted by its context must leave the
// symbolic analysis untouched, so a follow-up factorization from the same
// analysis succeeds and solves correctly.
func TestCanceledRunLeavesAnalysisReusable(t *testing.T) {
	const (
		stall    = 2 * time.Millisecond
		deadline = 50 * time.Millisecond
	)
	// At one rank small bottom subtrees run as one task each, so the problem
	// must be large enough to leave many tasks: Laplace3D 10³ keeps 252.
	a := gen.Laplace3D(10, 10, 10)
	st, pa, err := symbolic.Analyze(a, ordering.NestedDissection, symbolic.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// One rank, no helpers: every task pull is preceded by a stalled
	// Progress, so the slowed run lasts at least tasks × stall. Default
	// Workers would add unstalled helpers that finish first. A clean run
	// counts the tasks; twice the deadline is the margin.
	clean, err := FactorizeAnalyzed(st, pa, Options{Ranks: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	tasks := clean.Metrics.Value("sympack_core_tasks_owned")
	if floor := time.Duration(tasks) * stall; floor < 2*deadline {
		t.Fatalf("%g tasks × %v = %v: the slowed run would not provably outlast its %v deadline", tasks, stall, floor, deadline)
	}
	plan := planWith(2, faults.RankStall, 1)
	plan.StallWindow = stall
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	slowed := Options{Ranks: 1, Workers: 1, Faults: plan, Context: ctx}
	if _, err := FactorizeAnalyzed(st, pa, slowed); !errors.Is(err, ErrCanceled) {
		t.Fatalf("slowed run: err=%v, want ErrCanceled", err)
	}
	f, err := FactorizeAnalyzed(st, pa, Options{})
	if err != nil {
		t.Fatalf("retry after cancellation: %v", err)
	}
	b := make([]float64, a.N)
	for i := range b {
		b[i] = 1
	}
	x, err := f.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if res := ResidualNorm(a, x, b); res > 1e-10 {
		t.Fatalf("residual after retried factorization = %g", res)
	}
}

func TestSolveCtxCanceled(t *testing.T) {
	a := gen.Laplace2D(8, 8)
	f, err := Factorize(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, a.N)
	for i := range b {
		b[i] = 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := f.SolveCtx(ctx, b); !errors.Is(err, ErrCanceled) {
		t.Fatalf("SolveCtx with canceled context: err=%v, want ErrCanceled", err)
	}
	if _, err := f.SolveMultiCtx(ctx, [][]float64{b, b}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("SolveMultiCtx with canceled context: err=%v, want ErrCanceled", err)
	}
	// A nil context means no bound; a live context solves normally.
	x, err := f.SolveCtx(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	if res := ResidualNorm(a, x, b); res > 1e-10 {
		t.Fatalf("residual = %g", res)
	}
}
