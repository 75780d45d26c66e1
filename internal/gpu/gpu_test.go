package gpu

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"sympack/internal/blas"
	"sympack/internal/machine"
)

func newDev(capElems int64) *Device {
	return NewDevice(0, machine.Perlmutter(), capElems)
}

func TestAllocFreeAccounting(t *testing.T) {
	d := newDev(100)
	b1, err := d.Alloc(60)
	if err != nil {
		t.Fatal(err)
	}
	if d.Used() != 60 {
		t.Fatalf("used = %d", d.Used())
	}
	if _, err := d.Alloc(50); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("expected OOM, got %v", err)
	}
	b2, err := d.Alloc(40)
	if err != nil {
		t.Fatal(err)
	}
	d.Free(b1)
	if d.Used() != 40 {
		t.Fatalf("used after free = %d", d.Used())
	}
	d.Free(b2)
	if d.Used() != 0 {
		t.Fatal("not all freed")
	}
}

func TestAllocUnbounded(t *testing.T) {
	d := newDev(0)
	if _, err := d.Alloc(10_000_000); err != nil {
		t.Fatal(err)
	}
}

func TestAllocNegative(t *testing.T) {
	d := newDev(0)
	if _, err := d.Alloc(-1); err == nil {
		t.Fatal("expected error")
	}
}

func TestFreeForeignPanics(t *testing.T) {
	d1, d2 := newDev(10), newDev(10)
	b, _ := d1.Alloc(5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d2.Free(b)
}

func TestKernelsComputeCorrectly(t *testing.T) {
	d := newDev(0)
	rng := rand.New(rand.NewSource(1))
	n := 12
	// Build SPD on the device, factor, and reconstruct.
	host := make([]float64, n*n)
	tmp := make([]float64, n*n)
	for i := range tmp {
		tmp[i] = rng.NormFloat64()
	}
	blas.RefGemm(blas.NoTrans, blas.Transpose, n, n, n, 1, tmp, n, tmp, n, 0, host, n)
	for i := 0; i < n; i++ {
		host[i+i*n] += float64(n)
	}
	buf, _ := d.Alloc(n * n)
	if dt := d.HostToDevice(buf, host); dt <= 0 {
		t.Fatal("copy time must be positive")
	}
	dt, err := d.Potrf(n, buf, n)
	if err != nil {
		t.Fatal(err)
	}
	if dt <= 0 {
		t.Fatal("kernel time must be positive")
	}
	got := make([]float64, n*n)
	d.DeviceToHost(got, buf)
	// L·Lᵀ ≈ original.
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			var s float64
			for r := 0; r <= j; r++ {
				s += got[i+r*n] * got[j+r*n]
			}
			if math.Abs(s-host[i+j*n]) > 1e-8*float64(n) {
				t.Fatalf("device potrf wrong at (%d,%d)", i, j)
			}
		}
	}
	if d.BusySeconds() <= 0 {
		t.Fatal("busy time not accumulated")
	}
}

func TestDeviceGemmSyrkTrsmMatchHost(t *testing.T) {
	d := newDev(0)
	rng := rand.New(rand.NewSource(2))
	m, n, k := 7, 5, 6
	a := make([]float64, m*k)
	b := make([]float64, n*k)
	c := make([]float64, m*n)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	for i := range c {
		c[i] = rng.NormFloat64()
	}
	want := make([]float64, m*n)
	blas.Gemm(blas.NoTrans, blas.Transpose, m, n, k, 1, a, m, b, n, 0, want, m)

	da, _ := d.Alloc(m * k)
	db, _ := d.Alloc(n * k)
	dc, _ := d.Alloc(m * n)
	d.HostToDevice(da, a)
	d.HostToDevice(db, b)
	d.HostToDevice(dc, c)
	d.Gemm(m, n, k, da, m, db, n, dc, m)
	got := make([]float64, m*n)
	d.DeviceToHost(got, dc)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatal("device gemm differs from host")
		}
	}

	// SYRK.
	cs := make([]float64, m*m)
	for i := range cs {
		cs[i] = rng.NormFloat64()
	}
	wantS := make([]float64, m*m)
	blas.Syrk(blas.Lower, blas.NoTrans, m, k, 1, a, m, 0, wantS, m)
	// Syrk writes only the lower triangle; mirror the untouched upper
	// entries of the input so the comparison is apples-to-apples.
	for j := 0; j < m; j++ {
		for i := 0; i < j; i++ {
			wantS[i+j*m] = cs[i+j*m]
		}
	}
	dcs, _ := d.Alloc(m * m)
	d.HostToDevice(dcs, cs)
	d.Syrk(m, k, da, m, dcs, m)
	gotS := make([]float64, m*m)
	d.DeviceToHost(gotS, dcs)
	for i := range gotS {
		if math.Abs(gotS[i]-wantS[i]) > 1e-12 {
			t.Fatal("device syrk differs from host")
		}
	}

	// TRSM against a well-conditioned lower factor.
	l := make([]float64, n*n)
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			l[i+j*n] = rng.NormFloat64()
		}
		l[j+j*n] = 3 + math.Abs(l[j+j*n])
	}
	x := make([]float64, m*n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	wantX := append([]float64(nil), x...)
	blas.Trsm(blas.Right, blas.Lower, blas.Transpose, m, n, 1, l, n, wantX, m)
	dl, _ := d.Alloc(n * n)
	dx, _ := d.Alloc(m * n)
	d.HostToDevice(dl, l)
	d.HostToDevice(dx, x)
	d.Trsm(m, n, dl, n, dx, m)
	gotX := make([]float64, m*n)
	d.DeviceToHost(gotX, dx)
	for i := range gotX {
		if math.Abs(gotX[i]-wantX[i]) > 1e-12 {
			t.Fatal("device trsm differs from host")
		}
	}
}

func TestPotrfErrorPropagates(t *testing.T) {
	d := newDev(0)
	buf, _ := d.Alloc(4)
	// Indefinite 2x2.
	copy(buf.Data, []float64{1, 2, 2, 1})
	if _, err := d.Potrf(2, buf, 2); !errors.Is(err, blas.ErrNotPositiveDefinite) {
		t.Fatalf("expected not-SPD error, got %v", err)
	}
}

func TestThresholds(t *testing.T) {
	th := DefaultThresholds()
	// A tiny block stays on CPU for every op.
	for _, op := range []machine.Op{machine.OpPotrf, machine.OpTrsm, machine.OpSyrk, machine.OpGemm} {
		if th.ShouldOffload(op, 16) {
			t.Fatalf("%v offloaded a 16-element block", op)
		}
		if !th.ShouldOffload(op, 1<<20) {
			t.Fatalf("%v kept a 1M-element block on CPU", op)
		}
	}
	// Ops have distinct thresholds (the paper's point about differing
	// arithmetic intensity).
	if th.Potrf == th.Trsm && th.Trsm == th.Syrk {
		t.Fatal("thresholds should differ per op")
	}
}

// TestFallbackPolicyString: the names round-trip through ParseFallback,
// which rejects every other string.
func TestFallbackPolicyString(t *testing.T) {
	if FallbackCPU.String() != "cpu" || FallbackError.String() != "error" {
		t.Fatal("policy names")
	}
	for _, p := range []FallbackPolicy{FallbackCPU, FallbackError} {
		if got, err := ParseFallback(p.String()); err != nil || got != p {
			t.Errorf("ParseFallback(%q) = %v, %v; want %v", p.String(), got, err, p)
		}
	}
	for _, s := range []string{"", "err", "ERROR", "gpu"} {
		if _, err := ParseFallback(s); err == nil {
			t.Errorf("ParseFallback(%q): expected an error", s)
		}
	}
}

// The economics the thresholds encode: total modeled time (copies +
// kernel) must favor CPU below threshold and GPU above, for the default
// machine.
func TestOffloadEconomics(t *testing.T) {
	m := machine.Perlmutter()
	cost := func(n int, onGPU bool) float64 {
		fl := machine.KernelFlops(machine.OpGemm, n, n, n)
		if !onGPU {
			return m.CPUTime(fl)
		}
		bytes := int64(3 * n * n * 8)
		return m.HostDeviceCopyTime(bytes) + m.GPUTime(fl)
	}
	if cost(8, true) < cost(8, false) {
		t.Fatal("8×8 GEMM should not be worth offloading")
	}
	if cost(512, true) > cost(512, false) {
		t.Fatal("512×512 GEMM should be worth offloading")
	}
}
