package upcxx

import (
	"errors"
	"math"
	"testing"

	"sympack/internal/machine"
)

func TestBroadcast(t *testing.T) {
	rt := newRT(t, 6)
	err := rt.Run(func(r *Rank) {
		data := make([]float64, 8)
		if r.ID == 2 {
			for i := range data {
				data[i] = float64(10 + i)
			}
		}
		if err := r.Broadcast(2, data); err != nil {
			t.Error(err)
			return
		}
		for i, v := range data {
			if v != float64(10+i) {
				t.Errorf("rank %d: data[%d] = %g", r.ID, i, v)
				return
			}
		}
		if r.Elapsed() <= 0 && rt.P() > 1 {
			t.Errorf("rank %d: collective cost not charged", r.ID)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllReduceSum(t *testing.T) {
	rt := newRT(t, 5)
	err := rt.Run(func(r *Rank) {
		data := []float64{float64(r.ID), 1}
		if err := r.AllReduce(OpSum, data); err != nil {
			t.Error(err)
			return
		}
		// Σ 0..4 = 10, Σ 1 = 5.
		if data[0] != 10 || data[1] != 5 {
			t.Errorf("rank %d: reduce = %v", r.ID, data)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllReduceMax(t *testing.T) {
	rt := newRT(t, 4)
	err := rt.Run(func(r *Rank) {
		data := []float64{math.Sin(float64(r.ID))}
		if err := r.AllReduce(OpMax, data); err != nil {
			t.Error(err)
			return
		}
		want := math.Sin(2) // max of sin(0..3): sin(2) ≈ 0.909
		if math.Abs(data[0]-want) > 1e-15 {
			t.Errorf("rank %d: max = %g, want %g", r.ID, data[0], want)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCollectivesSequence(t *testing.T) {
	// Repeated collectives must not deadlock or cross-contaminate.
	rt := newRT(t, 3)
	err := rt.Run(func(r *Rank) {
		for round := 0; round < 10; round++ {
			data := []float64{1}
			if err := r.AllReduce(OpSum, data); err != nil {
				t.Error(err)
				return
			}
			if data[0] != 3 {
				t.Errorf("round %d: %g", round, data[0])
				return
			}
			b := []float64{float64(round)}
			if r.ID != 0 {
				b[0] = -1
			}
			if err := r.Broadcast(0, b); err != nil {
				t.Error(err)
				return
			}
			if b[0] != float64(round) {
				t.Errorf("round %d: broadcast got %g", round, b[0])
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCollectiveAborts(t *testing.T) {
	rt := newRT(t, 3)
	err := rt.Run(func(r *Rank) {
		if r.ID == 0 {
			rt.Fail(errors.New("synthetic"))
			return
		}
		if err := r.AllReduce(OpSum, []float64{1}); !errors.Is(err, ErrAborted) {
			t.Errorf("rank %d: err = %v, want ErrAborted", r.ID, err)
		}
	})
	if err == nil {
		t.Fatal("expected recorded failure")
	}
}

func TestCollectiveSingleRank(t *testing.T) {
	rt, err := NewRuntime(Config{Ranks: 1, Machine: machine.Perlmutter()})
	if err != nil {
		t.Fatal(err)
	}
	err = rt.Run(func(r *Rank) {
		d := []float64{4}
		if err := r.AllReduce(OpSum, d); err != nil || d[0] != 4 {
			t.Errorf("single-rank reduce: %v %v", d, err)
		}
		if err := r.Broadcast(0, d); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAllReduceBackToBack is the regression test for the collective
// staging-buffer race: the last arriver of one AllReduce could enter the
// next AllReduce and overwrite the shared accumulator before the first
// call's waiters had copied their result, handing them the second
// reduction's values. A sum-then-max pair is exactly this shape, so the
// test hammers back-to-back reductions with distinguishable operands.
func TestAllReduceBackToBack(t *testing.T) {
	const p = 8
	rt := newRT(t, p)
	err := rt.Run(func(r *Rank) {
		for round := 0; round < 200; round++ {
			sum := []float64{float64(r.ID + 1)}
			if err := r.AllReduce(OpSum, sum); err != nil {
				t.Error(err)
				return
			}
			max := []float64{float64(1000 + r.ID)}
			if err := r.AllReduce(OpMax, max); err != nil {
				t.Error(err)
				return
			}
			if sum[0] != 36 { // Σ 1..8
				t.Errorf("rank %d round %d: sum = %g, want 36", r.ID, round, sum[0])
				return
			}
			if max[0] != 1007 {
				t.Errorf("rank %d round %d: max = %g, want 1007", r.ID, round, max[0])
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
