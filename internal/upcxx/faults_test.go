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

func TestFutureErrorPropagation(t *testing.T) {
	f := Future{err: errors.New("synthetic")}
	if f.OK() || f.Err() == nil {
		t.Fatalf("failed future reports OK=%v Err=%v", f.OK(), f.Err())
	}
	ok := Future{seconds: 2}
	if !ok.OK() || ok.Err() != nil {
		t.Fatal("clean future must report OK")
	}
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
		f := r.Rget(src, dst)
		if !f.OK() {
			t.Errorf("rget failed despite retry budget: %v", f.Err())
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
	// Unlimited faults exhaust the retry budget; the future must carry
	// ErrTransferFailed (a transient), and the destination stays unwritten.
	rt := newFaultyRT(t, 1, planOf(7, faults.TransientTransfer, 1.0, 0))
	err := rt.Run(func(r *Rank) {
		src := r.NewArray(8)
		for i := range src.Data {
			src.Data[i] = 1
		}
		dst := make([]float64, 8)
		f := r.Rget(src, dst)
		if f.OK() {
			t.Error("rget succeeded under total transfer loss")
			return
		}
		if !errors.Is(f.Err(), ErrTransferFailed) {
			t.Errorf("err = %v, want ErrTransferFailed", f.Err())
		}
		if !errors.Is(f.Err(), faults.ErrTransient) {
			t.Errorf("err = %v, want transient classification", f.Err())
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
