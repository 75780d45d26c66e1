package machine

import "testing"

func TestPerlmutterShape(t *testing.T) {
	m := Perlmutter()
	if m.CoresPerNode != 64 || m.GPUsPerNode != 4 {
		t.Fatalf("node shape wrong: %+v", m)
	}
	if !m.GDR {
		t.Fatal("Perlmutter model must default to native memory kinds")
	}
	r := m.WithoutGDR()
	if r.GDR || !m.GDR {
		t.Fatal("WithoutGDR must copy, not mutate")
	}
}

func TestCPUGPUCrossover(t *testing.T) {
	m := Perlmutter()
	// Tiny kernels: CPU must win (launch overhead dominates).
	small := KernelFlops(OpGemm, 8, 8, 8)
	if m.GPUTime(small) <= m.CPUTime(small) {
		t.Fatalf("tiny GEMM should be faster on CPU: gpu=%g cpu=%g", m.GPUTime(small), m.CPUTime(small))
	}
	// Large kernels: GPU must win by a wide margin.
	big := KernelFlops(OpGemm, 2048, 2048, 2048)
	if m.GPUTime(big) >= m.CPUTime(big)/10 {
		t.Fatalf("large GEMM should be ≫ faster on GPU: gpu=%g cpu=%g", m.GPUTime(big), m.CPUTime(big))
	}
	// Monotonicity in flops.
	if m.GPUTime(big) <= m.GPUTime(small) {
		t.Fatal("GPU time not monotone")
	}
	if m.CPUTime(big) <= m.CPUTime(small) {
		t.Fatal("CPU time not monotone")
	}
}

func TestKernelFlops(t *testing.T) {
	if KernelFlops(OpPotrf, 0, 6, 0) != 72 {
		t.Fatal("potrf flops")
	}
	if KernelFlops(OpTrsm, 5, 3, 0) != 45 {
		t.Fatal("trsm flops")
	}
	if KernelFlops(OpSyrk, 3, 2, 0) != 24 {
		t.Fatal("syrk flops")
	}
	if KernelFlops(OpGemm, 2, 3, 4) != 2*2*3*4 {
		t.Fatal("gemm flops")
	}
}

func TestOpString(t *testing.T) {
	names := map[Op]string{OpPotrf: "POTRF", OpTrsm: "TRSM", OpSyrk: "SYRK", OpGemm: "GEMM"}
	for op, want := range names {
		if op.String() != want {
			t.Fatalf("%v != %s", op, want)
		}
	}
}

func TestClock(t *testing.T) {
	var c Clock
	c.Advance(1.5)
	c.Advance(0.25)
	if c.Seconds() != 1.75 {
		t.Fatalf("clock = %g", c.Seconds())
	}
}

func TestHostDeviceCopyTime(t *testing.T) {
	m := Perlmutter()
	small := m.HostDeviceCopyTime(8)
	big := m.HostDeviceCopyTime(1 << 26)
	if big <= small {
		t.Fatal("copy time not monotone")
	}
	// Large copies approach the configured bandwidth.
	bw := float64(int64(1<<26)) / big
	if bw < 0.5*m.GPUCopyBandwidth {
		t.Fatalf("large-copy bandwidth %g too far below %g", bw, m.GPUCopyBandwidth)
	}
}

func TestFrontierShape(t *testing.T) {
	f := Frontier()
	if f.Name != "frontier" || f.GPUsPerNode != 4 || !f.GDR {
		t.Fatalf("frontier model wrong: %+v", f)
	}
	// AMD model must differ from the NVIDIA one where it matters.
	p := Perlmutter()
	if f.GPUFlops == p.GPUFlops || f.GPULaunchOverhead == p.GPULaunchOverhead {
		t.Fatal("frontier should not clone perlmutter")
	}
	// Sanity: large kernels still much faster on its GPU.
	fl := KernelFlops(OpGemm, 1024, 1024, 1024)
	if f.GPUTime(fl) >= f.CPUTime(fl) {
		t.Fatal("frontier GPU should beat CPU on large GEMM")
	}
}
