package upcxx

import (
	"errors"
	"sync/atomic"
	"testing"

	"sympack/internal/faults"
	"sympack/internal/machine"
)

func newFaultyRT(t *testing.T, p int, plan faults.Plan) *Runtime {
	t.Helper()
	rt, err := NewRuntime(Config{
		Ranks:   p,
		Machine: machine.Perlmutter(),
		Faults:  faults.New(plan, p),
	})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func planOf(seed int64, c faults.Class, rate float64, limit int64) faults.Plan {
	p := faults.Plan{Seed: seed}
	p.Rate[c] = rate
	p.Limit[c] = limit
	return p
}

// countHits registers a handler that counts the signals delivered.
func countHits(rt *Runtime) *atomic.Int64 {
	var hits atomic.Int64
	rt.Handle(func(*Rank, Msg) { hits.Add(1) })
	return &hits
}

func TestInjectedDropSignal(t *testing.T) {
	rt := newFaultyRT(t, 2, planOf(7, faults.DropSignal, 1.0, 0))
	hits := countHits(rt)
	err := rt.Run(func(r *Rank) {
		if r.ID == 0 {
			for i := 0; i < 5; i++ {
				r.Signal(1, Msg{ID: int32(i)})
			}
		}
		if err := r.Barrier(); err != nil {
			t.Error(err)
			return
		}
		for r.PendingSignals() > 0 {
			r.Progress()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if hits.Load() != 0 {
		t.Fatalf("drop rate 1.0 delivered %d signals", hits.Load())
	}
	if got := rt.Metrics().Value("sympack_upcxx_signals_dropped_total"); got != 5 {
		t.Fatalf("dropped = %g, want 5", got)
	}
}

func TestInjectedDupSignal(t *testing.T) {
	rt := newFaultyRT(t, 2, planOf(7, faults.DupSignal, 1.0, 0))
	hits := countHits(rt)
	err := rt.Run(func(r *Rank) {
		if r.ID == 0 {
			for i := 0; i < 5; i++ {
				r.Signal(1, Msg{ID: int32(i)})
			}
		}
		if err := r.Barrier(); err != nil {
			t.Error(err)
			return
		}
		for r.PendingSignals() > 0 {
			r.Progress()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if hits.Load() != 10 {
		t.Fatalf("dup rate 1.0 delivered %d signals, want 10", hits.Load())
	}
	if got := rt.Metrics().Value("sympack_upcxx_signals_duplicated_total"); got != 5 {
		t.Fatalf("dup = %g, want 5", got)
	}
}

func TestInjectedDelaySignal(t *testing.T) {
	rt := newFaultyRT(t, 2, planOf(7, faults.DelaySignal, 1.0, 0))
	hits := countHits(rt)
	err := rt.Run(func(r *Rank) {
		if r.ID == 0 {
			for i := 0; i < 5; i++ {
				r.Signal(1, Msg{ID: int32(i)})
			}
		}
		if err := r.Barrier(); err != nil {
			t.Error(err)
			return
		}
		if r.ID == 1 {
			// Delayed signals sit in the delay queue and only run after
			// enough progress ticks age them out.
			rounds := 0
			for r.PendingSignals() > 0 {
				r.Progress()
				rounds++
				if rounds > 100 {
					t.Error("delayed signals never matured")
					return
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if hits.Load() != 5 {
		t.Fatalf("delivered %d signals, want 5", hits.Load())
	}
	if got := rt.Metrics().Value("sympack_upcxx_signals_delayed_total"); got != 5 {
		t.Fatalf("delayed = %g, want 5", got)
	}
}

func TestTransferRetrySucceeds(t *testing.T) {
	// Limit 3 < transferAttempts 8: the first three attempts fail, the
	// fourth succeeds, and the data must arrive intact.
	rt := newFaultyRT(t, 1, planOf(7, faults.TransientTransfer, 1.0, 3))
	err := rt.Run(func(r *Rank) {
		src := r.NewArray(16)
		for i := range src.Data {
			src.Data[i] = float64(i)
		}
		dst := make([]float64, 16)
		if err := r.Rget(src, dst); err != nil {
			t.Errorf("rget failed despite retry budget: %v", err)
			return
		}
		if dst[15] != 15 {
			t.Errorf("data not moved: dst[15] = %g", dst[15])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rt.Metrics().Value("sympack_upcxx_transfer_retries_total"); got != 3 {
		t.Fatalf("retries = %g, want 3", got)
	}
	if got := rt.Metrics().Value("sympack_upcxx_transfer_failures_total"); got != 0 {
		t.Fatalf("failures = %g, want 0", got)
	}
}

func TestTransferExhaustionLeavesDataUntouched(t *testing.T) {
	// Unlimited faults exhaust the retry budget; the error must wrap
	// ErrTransferFailed (a transient), and the destination stays unwritten.
	rt := newFaultyRT(t, 1, planOf(7, faults.TransientTransfer, 1.0, 0))
	err := rt.Run(func(r *Rank) {
		src := r.NewArray(8)
		for i := range src.Data {
			src.Data[i] = 1
		}
		dst := make([]float64, 8)
		err := r.Rget(src, dst)
		if err == nil {
			t.Error("rget succeeded under total transfer loss")
			return
		}
		if !errors.Is(err, ErrTransferFailed) {
			t.Errorf("err = %v, want ErrTransferFailed", err)
		}
		if !errors.Is(err, faults.ErrTransient) {
			t.Errorf("err = %v, want transient classification", err)
		}
		for i, v := range dst {
			if v != 0 {
				t.Errorf("dst[%d] = %g written despite failed transfer", i, v)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Metrics().Value("sympack_upcxx_transfer_failures_total") == 0 {
		t.Fatal("no transfer failure recorded")
	}
}

// TestConcurrentFailBarrierAbort has several ranks call Fail simultaneously
// while the rest sit in a barrier: every waiter must be released with
// ErrAborted, and exactly one failure must win as the recorded cause.
func TestConcurrentFailBarrierAbort(t *testing.T) {
	rt := newRT(t, 8)
	err := rt.Run(func(r *Rank) {
		if r.ID < 4 {
			rt.Fail(errors.New("concurrent failure"))
			return
		}
		if err := r.Barrier(); !errors.Is(err, ErrAborted) {
			t.Errorf("rank %d: barrier err = %v, want ErrAborted", r.ID, err)
		}
	})
	if err == nil || rt.Err() == nil {
		t.Fatal("expected recorded failure")
	}
	if !rt.ShouldAbort() {
		t.Fatal("abort flag not set")
	}
}

// TestQuiescent walks the quiescence service through its states: a rank
// starts busy, and the job is quiescent once every rank is idle and every
// enqueued signal has been handled. A handled signal marks its target
// busy until it is idle again. Under injection the counts follow what was
// enqueued: a dropped signal never counts, a duplicated one counts twice
// and a delayed one counts until a later Progress hands it over.
func TestQuiescent(t *testing.T) {
	for _, tc := range []struct {
		name    string
		plan    faults.Plan
		handled int64
	}{
		{"perfect", faults.Plan{}, 1},
		{"drop", planOf(3, faults.DropSignal, 1, 0), 0},
		{"dup", planOf(3, faults.DupSignal, 1, 0), 2},
		{"delay", planOf(3, faults.DelaySignal, 1, 0), 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := newFaultyRT(t, 2, tc.plan)
			hits := countHits(rt)
			r0, r1 := rt.ranks[0], rt.ranks[1]
			check := func(step string, want bool) {
				t.Helper()
				if got := rt.Quiescent(); got != want {
					t.Errorf("%s: Quiescent() = %v, want %v", step, got, want)
				}
			}
			lost := tc.handled == 0
			check("at start", false)
			r0.Idle()
			check("one rank idle", false)
			r1.Idle()
			check("both idle", true)
			r0.Signal(1, Msg{})
			check("signal sent", lost)
			for r1.PendingSignals() > 0 {
				r1.Progress()
			}
			check("signal handled", lost)
			r1.Idle()
			check("target idle again", true)
			r1.Progress()
			check("empty Progress", true)
			if hits.Load() != tc.handled {
				t.Errorf("handled %d signals, want %d", hits.Load(), tc.handled)
			}
		})
	}
}
