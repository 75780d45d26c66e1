package upcxx

import (
	"errors"
	"sync/atomic"
	"testing"

	"sympack/internal/gpu"
	"sympack/internal/machine"
	"sympack/internal/simnet"
)

func newRT(t *testing.T, p int) *Runtime {
	t.Helper()
	rt, err := NewRuntime(Config{Ranks: p, Machine: machine.Perlmutter()})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestNewRuntimeValidation(t *testing.T) {
	if _, err := NewRuntime(Config{Ranks: 0}); err == nil {
		t.Fatal("expected error for 0 ranks")
	}
}

func TestRunExecutesEveryRank(t *testing.T) {
	rt := newRT(t, 8)
	var hits atomic.Int64
	if err := rt.Run(func(r *Rank) { hits.Add(1) }); err != nil {
		t.Fatal(err)
	}
	if hits.Load() != 8 {
		t.Fatalf("ran %d ranks", hits.Load())
	}
}

func TestRPCAndProgress(t *testing.T) {
	rt := newRT(t, 4)
	var sum atomic.Int64
	err := rt.Run(func(r *Rank) {
		if r.ID == 0 {
			for tgt := 1; tgt < 4; tgt++ {
				v := int64(tgt * 10)
				r.RPC(tgt, func(me *Rank) { sum.Add(v + int64(me.ID)) })
			}
		}
		if err := r.Barrier(); err != nil {
			t.Error(err)
			return
		}
		if r.ID != 0 {
			if r.PendingRPCs() != 1 {
				t.Errorf("rank %d: pending = %d", r.ID, r.PendingRPCs())
			}
			if n := r.Progress(); n != 1 {
				t.Errorf("rank %d: progress ran %d", r.ID, n)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// 10+1 + 20+2 + 30+3 = 66.
	if sum.Load() != 66 {
		t.Fatalf("sum = %d", sum.Load())
	}
	if got := rt.Metrics().Value("sympack_upcxx_signals_sent_total"); got != 3 {
		t.Fatalf("rpc count = %g", got)
	}
}

func TestRgetRputRoundTrip(t *testing.T) {
	rt := newRT(t, 2)
	ptrs := make([]GlobalPtr, 2)
	err := rt.Run(func(r *Rank) {
		g := r.NewArray(16)
		for i := range g.Data {
			g.Data[i] = float64(r.ID*100 + i)
		}
		ptrs[r.ID] = g
		if err := r.Barrier(); err != nil {
			t.Error(err)
			return
		}
		other := 1 - r.ID
		dst := make([]float64, 16)
		f := r.Rget(ptrs[other], dst)
		if f.Wait() <= 0 {
			t.Error("rget must model positive time")
		}
		for i, v := range dst {
			if v != float64(other*100+i) {
				t.Errorf("rank %d got %g at %d", r.ID, v, i)
				return
			}
		}
		// Rput into the other rank's second half.
		r.Rput(dst[:8], ptrs[other].Slice(8, 16))
	})
	if err != nil {
		t.Fatal(err)
	}
	gets, puts := rt.Metrics().Value("sympack_upcxx_rma_gets_total"), rt.Metrics().Value("sympack_upcxx_rma_puts_total")
	if gets != 2 || puts != 2 {
		t.Fatalf("stats: %g gets %g puts", gets, puts)
	}
	// Rank 0's slots 8..16 were overwritten by rank 1 with rank 0's data.
	if ptrs[0].Data[8] != 0 {
		t.Fatalf("rput result = %g, want 0 (rank 0 element 0)", ptrs[0].Data[8])
	}
}

func TestDeviceAllocAndCopyKinds(t *testing.T) {
	rt, err := NewRuntime(Config{
		Ranks: 2, RanksPerNode: 1, GPUsPerNode: 1,
		Machine: machine.Perlmutter(), DeviceCapacity: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	hostPtrs := make([]GlobalPtr, 2)
	devPtrs := make([]GlobalPtr, 2)
	bufs := make([]*gpu.Buffer, 2)
	err = rt.Run(func(r *Rank) {
		h := r.NewArray(32)
		for i := range h.Data {
			h.Data[i] = float64(r.ID + 1)
		}
		hostPtrs[r.ID] = h
		d, buf, err := r.DeviceAlloc(32)
		if err != nil {
			t.Error(err)
			return
		}
		devPtrs[r.ID] = d
		bufs[r.ID] = buf
		if err := r.Barrier(); err != nil {
			t.Error(err)
			return
		}
		if r.ID == 0 {
			// Remote host → local... rather: host on rank 0 to device on
			// rank 1 — the direct GDR path of §4.2.
			f := r.Copy(hostPtrs[0], devPtrs[1])
			if f.Seconds() <= 0 {
				t.Error("copy must model positive time")
			}
		}
		if err := r.Barrier(); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if devPtrs[1].Data[0] != 1 {
		t.Fatalf("device data = %g, want 1", devPtrs[1].Data[0])
	}
	// The transfer must have been classified GDR (native kinds).
	if rt.Metrics().Value("sympack_upcxx_path_transfers_total", "path", simnet.PathGDR.String()) == 0 {
		t.Fatal("expected a GDR-path transfer")
	}
	// OOM beyond capacity.
	err = rt.Run(func(r *Rank) {
		if r.ID == 0 {
			if _, _, err := r.DeviceAlloc(2000); !errors.Is(err, gpu.ErrOutOfMemory) {
				t.Errorf("expected OOM, got %v", err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCopyStagedWithoutGDR(t *testing.T) {
	rt, err := NewRuntime(Config{
		Ranks: 2, RanksPerNode: 1, GPUsPerNode: 1,
		Machine: machine.Perlmutter().WithoutGDR(),
	})
	if err != nil {
		t.Fatal(err)
	}
	devPtrs := make([]GlobalPtr, 2)
	err = rt.Run(func(r *Rank) {
		d, _, err := r.DeviceAlloc(8)
		if err != nil {
			t.Error(err)
			return
		}
		devPtrs[r.ID] = d
		if err := r.Barrier(); err != nil {
			t.Error(err)
			return
		}
		if r.ID == 0 {
			src := r.NewArray(8)
			r.Copy(src, devPtrs[1])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Metrics().Value("sympack_upcxx_path_transfers_total", "path", simnet.PathStaged.String()) == 0 {
		t.Fatal("expected a staged-path transfer without GDR")
	}
}

func TestLocalHostDeviceCopy(t *testing.T) {
	rt, err := NewRuntime(Config{Ranks: 1, GPUsPerNode: 1, Machine: machine.Perlmutter()})
	if err != nil {
		t.Fatal(err)
	}
	err = rt.Run(func(r *Rank) {
		h := r.NewArray(4)
		h.Data[2] = 7
		d, _, err := r.DeviceAlloc(4)
		if err != nil {
			t.Error(err)
			return
		}
		r.Copy(h, d)
		if d.Data[2] != 7 {
			t.Error("local host→device copy failed")
		}
		r.Copy(d, h)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeviceBindingCyclic(t *testing.T) {
	rt, err := NewRuntime(Config{
		Ranks: 8, RanksPerNode: 4, GPUsPerNode: 2,
		Machine: machine.Perlmutter(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rt.Devices()) != 4 { // 2 nodes × 2 GPUs
		t.Fatalf("device count = %d", len(rt.Devices()))
	}
	// Ranks 0..3 on node 0: devices 0,1,0,1. Ranks 4..7 on node 1: 2,3,2,3.
	want := []int{0, 1, 0, 1, 2, 3, 2, 3}
	for i, r := range rt.ranks {
		if r.device.ID != want[i] {
			t.Fatalf("rank %d bound to device %d, want %d", i, r.device.ID, want[i])
		}
	}
	if rt.Node(3) != 0 || rt.Node(4) != 1 {
		t.Fatal("node mapping wrong")
	}
}

func TestPanicAbortsJob(t *testing.T) {
	rt := newRT(t, 4)
	err := rt.Run(func(r *Rank) {
		if r.ID == 2 {
			panic("boom")
		}
		// Everyone else waits at a barrier that must release on abort.
		if err := r.Barrier(); err == nil {
			t.Error("barrier should return ErrAborted")
		}
	})
	if err == nil || rt.Err() == nil {
		t.Fatal("expected recorded failure")
	}
	if !rt.ShouldAbort() {
		t.Fatal("abort flag not set")
	}
}

func TestFailReleasesBarrierAndDropsRPCs(t *testing.T) {
	rt := newRT(t, 3)
	err := rt.Run(func(r *Rank) {
		if r.ID == 0 {
			rt.Fail(errors.New("synthetic"))
			r.RPC(1, func(*Rank) {}) // dropped after abort
			return
		}
		if err := r.Barrier(); !errors.Is(err, ErrAborted) {
			t.Errorf("rank %d: barrier err = %v", r.ID, err)
		}
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if got := rt.Metrics().Value("sympack_upcxx_rpcs_dropped_abort_total"); got != 1 {
		t.Fatalf("dropped = %g", got)
	}
}

func TestBarrierSynchronizesPhases(t *testing.T) {
	rt := newRT(t, 6)
	shared := make([]int, 6)
	err := rt.Run(func(r *Rank) {
		shared[r.ID] = r.ID + 1
		if err := r.Barrier(); err != nil {
			t.Error(err)
			return
		}
		sum := 0
		for _, v := range shared {
			sum += v
		}
		if sum != 21 {
			t.Errorf("rank %d saw incomplete writes: %d", r.ID, sum)
		}
		if err := r.Barrier(); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestVirtualClockAccumulates(t *testing.T) {
	rt := newRT(t, 2)
	elapsed := make([]float64, 2)
	ptr := make([]GlobalPtr, 2)
	err := rt.Run(func(r *Rank) {
		ptr[r.ID] = r.NewArray(1 << 16)
		if err := r.Barrier(); err != nil {
			t.Error(err)
			return
		}
		dst := make([]float64, 1<<16)
		r.Rget(ptr[1-r.ID], dst)
		elapsed[r.ID] = r.Elapsed()
		r.ResetClock()
		if r.Elapsed() != 0 {
			t.Error("reset failed")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range elapsed {
		if e <= 0 {
			t.Fatalf("rank %d clock = %g", i, e)
		}
	}
}

func TestRgetLengthMismatchPanics(t *testing.T) {
	rt := newRT(t, 1)
	err := rt.Run(func(r *Rank) {
		g := r.NewArray(4)
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		r.Rget(g, make([]float64, 3))
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFutureThen(t *testing.T) {
	ran := false
	f := Future{seconds: 1}.Then(func() { ran = true })
	if !ran || f.Seconds() != 1 {
		t.Fatal("Then chaining broken")
	}
}

// Stress: a storm of concurrent RPCs and one-sided gets across ranks must
// deliver every message exactly once (run with -race to check memory
// safety).
func TestRPCStorm(t *testing.T) {
	const p, msgs = 8, 400
	rt := newRT(t, p)
	var delivered [p]atomic.Int64
	err := rt.Run(func(r *Rank) {
		src := r.NewArray(64)
		for i := range src.Data {
			src.Data[i] = float64(r.ID)
		}
		if err := r.Barrier(); err != nil {
			t.Error(err)
			return
		}
		for m := 0; m < msgs; m++ {
			tgt := (r.ID + m + 1) % p
			r.RPC(tgt, func(me *Rank) { delivered[me.ID].Add(1) })
			if m%16 == 0 {
				dst := make([]float64, 64)
				r.Rget(src, dst)
				r.Progress()
			}
		}
		// Drain until the global count settles: all ranks stop sending
		// after msgs messages, so polling until the barrier is safe.
		if err := r.Barrier(); err != nil {
			t.Error(err)
			return
		}
		for r.PendingRPCs() > 0 {
			r.Progress()
		}
		if err := r.Barrier(); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for i := range delivered {
		total += delivered[i].Load()
	}
	if total != p*msgs {
		t.Fatalf("delivered %d of %d messages", total, p*msgs)
	}
}
