// Package gpu simulates the CUDA accelerator of the paper's §4: a device
// with its own bounded memory, cuBLAS/cuSolver-like kernels (GEMM, SYRK,
// TRSM, POTRF) and a kernel-launch overhead that makes small operations
// unprofitable. Kernels perform the real numeric computation (via
// internal/blas) on device-resident buffers and return the modeled elapsed
// time, so both numeric correctness and the offload-economics behaviour the
// paper depends on are exercised.
package gpu

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"sympack/internal/blas"
	"sympack/internal/faults"
	"sympack/internal/machine"
	"sympack/internal/metrics"
)

// ErrOutOfMemory is returned when a device allocation does not fit. The
// solver's fallback options (§4.2) react to it.
var ErrOutOfMemory = errors.New("gpu: device out of memory")

// ErrDeviceFailed is returned once a device has gone permanently bad
// (injected mid-run hardware failure). Unlike ErrOutOfMemory it never
// clears: ranks bound to the device must demote themselves to CPU kernels.
var ErrDeviceFailed = errors.New("gpu: device failed")

// DefaultAdmission is the default number of concurrently admitted device
// operations (kernels and host↔device copies) per device — the stand-in for
// a small pool of CUDA streams. Ranks' worker pools share one device, so
// admission is the back-pressure that keeps a device from being timeshared
// by arbitrarily many concurrent submissions.
const DefaultAdmission = 4

// Device is one simulated GPU.
type Device struct {
	ID int
	M  machine.Machine

	mu       sync.Mutex
	capacity int64 // in float64 elements
	used     int64

	// admit is a counting semaphore bounding concurrently executing
	// device operations (per-op admission); every kernel and copy holds
	// one slot for its duration.
	admit chan struct{}

	// Busy accumulates modeled kernel seconds, for utilization reports.
	busy machine.Clock

	// inj, when non-nil, may fail allocations transiently or kill the
	// device outright; failed latches the death.
	inj    *faults.Injector
	failed atomic.Bool

	// met, when non-nil, receives allocation/admission telemetry.
	met *devMetrics
}

// devMetrics bundles the live per-device series so hot paths pay one
// atomic per event, never a registry lookup.
type devMetrics struct {
	admissions    *metrics.Counter
	allocs        *metrics.Counter
	allocFailures [3]*metrics.Counter // devfail, transient, oom
	memPeak       *metrics.Gauge
}

const (
	allocFailDev = iota
	allocFailTransient
	allocFailOOM
)

// SetMetrics registers this device's series in reg and starts recording.
// Call before the device is shared with concurrent users.
func (d *Device) SetMetrics(reg *metrics.Registry) {
	id := strconv.Itoa(d.ID)
	m := &devMetrics{
		admissions: reg.Counter("sympack_gpu_device_admissions_total",
			"device operations (kernels and copies) admitted through the stream semaphore", "device", id),
		allocs: reg.Counter("sympack_gpu_device_allocs_total",
			"successful device buffer allocations", "device", id),
		memPeak: reg.Gauge("sympack_gpu_device_mem_peak_elements",
			"high-water device memory use in float64 elements", metrics.MergeMax, "device", id),
	}
	for i, reason := range []string{"devfail", "transient", "oom"} {
		m.allocFailures[i] = reg.Counter("sympack_gpu_device_alloc_failures_total",
			"device allocation failures by cause", "device", id, "reason", reason)
	}
	d.met = m
}

// NewDevice creates a device with a capacity of capElems float64 elements.
// Zero or negative capacity means unbounded.
func NewDevice(id int, m machine.Machine, capElems int64) *Device {
	return &Device{ID: id, M: m, capacity: capElems, admit: make(chan struct{}, DefaultAdmission)}
}

// begin blocks until an admission slot is free; end releases it. Every
// kernel and host↔device copy runs inside a begin/end pair, so at most
// cap(admit) device operations make progress at once regardless of how many
// executor goroutines target the device.
func (d *Device) begin() {
	d.admit <- struct{}{}
	if d.met != nil {
		d.met.admissions.Inc()
	}
}
func (d *Device) end() { <-d.admit }

// Buffer is a device-resident array. Its Data lives in host address space
// (this is a simulation) but is accounted against the device capacity and
// must only be touched through kernels and copies, as real device memory
// would be.
type Buffer struct {
	dev  *Device
	Data []float64
}

// Len returns the element count.
func (b *Buffer) Len() int { return len(b.Data) }

// SetFaults attaches a fault injector consulted on every allocation; nil
// detaches it.
func (d *Device) SetFaults(inj *faults.Injector) { d.inj = inj }

// Failed reports whether the device has gone permanently bad.
func (d *Device) Failed() bool { return d.failed.Load() }

// MarkFailed kills the device permanently (tests and operators).
func (d *Device) MarkFailed() { d.failed.Store(true) }

// Alloc reserves n float64 elements of device memory. It returns
// ErrDeviceFailed once the device is dead, a transient error (wrapping
// faults.ErrTransient) on an injected hiccup, and ErrOutOfMemory when the
// allocation genuinely does not fit.
func (d *Device) Alloc(n int) (*Buffer, error) {
	if n < 0 {
		return nil, fmt.Errorf("gpu: negative allocation %d", n)
	}
	if d.failed.Load() || d.inj.DeviceFailed(d.ID) {
		d.failed.Store(true)
		d.countAllocFail(allocFailDev)
		return nil, fmt.Errorf("device %d: %w", d.ID, ErrDeviceFailed)
	}
	if d.inj.AllocFault(d.ID) {
		d.countAllocFail(allocFailTransient)
		return nil, fmt.Errorf("gpu: device %d: injected allocation failure: %w", d.ID, faults.ErrTransient)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.capacity > 0 && d.used+int64(n) > d.capacity {
		d.countAllocFail(allocFailOOM)
		return nil, fmt.Errorf("%w: want %d elements, %d of %d in use", ErrOutOfMemory, n, d.used, d.capacity)
	}
	d.used += int64(n)
	if d.met != nil {
		d.met.allocs.Inc()
		d.met.memPeak.SetMax(float64(d.used))
	}
	return &Buffer{dev: d, Data: make([]float64, n)}, nil
}

func (d *Device) countAllocFail(reason int) {
	if d.met != nil {
		d.met.allocFailures[reason].Inc()
	}
}

// Free releases a buffer's reservation. Double frees are programming
// errors and panic.
func (d *Device) Free(b *Buffer) {
	if b == nil || b.dev != d {
		panic("gpu: freeing foreign or nil buffer")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.used -= int64(len(b.Data))
	if d.used < 0 {
		panic("gpu: double free")
	}
	b.dev = nil
	b.Data = nil
}

// Used returns the current allocation in elements.
func (d *Device) Used() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.used
}

// BusySeconds returns accumulated modeled kernel time.
func (d *Device) BusySeconds() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.busy.Seconds()
}

func (d *Device) charge(flops int64) float64 {
	dt := d.M.GPUTime(flops)
	d.mu.Lock()
	d.busy.Advance(dt)
	d.mu.Unlock()
	return dt
}

// HostToDevice copies host data into a device buffer, returning modeled
// seconds.
func (d *Device) HostToDevice(dst *Buffer, src []float64) float64 {
	d.begin()
	defer d.end()
	copy(dst.Data, src)
	return d.M.HostDeviceCopyTime(int64(len(src) * 8))
}

// DeviceToHost copies device data back to the host, returning modeled
// seconds.
func (d *Device) DeviceToHost(dst []float64, src *Buffer) float64 {
	d.begin()
	defer d.end()
	copy(dst, src.Data)
	return d.M.HostDeviceCopyTime(int64(len(dst) * 8))
}

// Potrf runs the cuSOLVER-equivalent Cholesky factorization on a device
// buffer (column-major, order n, leading dimension ld), returning modeled
// seconds.
func (d *Device) Potrf(n int, a *Buffer, lda int) (float64, error) {
	d.begin()
	defer d.end()
	if err := blas.Potrf(blas.Lower, n, a.Data, lda); err != nil {
		return 0, err
	}
	return d.charge(blas.FlopsPotrf(n)), nil
}

// Trsm runs the cuBLAS triangular solve X·Lᵀ = B used by factorization
// tasks: b (m×n) is overwritten with the solution against the lower factor
// in a (n×n).
func (d *Device) Trsm(m, n int, a *Buffer, lda int, b *Buffer, ldb int) float64 {
	d.begin()
	defer d.end()
	blas.Trsm(blas.Right, blas.Lower, blas.Transpose, m, n, 1, a.Data, lda, b.Data, ldb)
	return d.charge(blas.FlopsTrsm(blas.Right, m, n))
}

// Syrk runs the cuBLAS symmetric rank-k product C = A·Aᵀ (lower triangle,
// beta = 0), producing the scratch contribution the solver scatters into
// its target block.
func (d *Device) Syrk(n, k int, a *Buffer, lda int, c *Buffer, ldc int) float64 {
	d.begin()
	defer d.end()
	blas.Syrk(blas.Lower, blas.NoTrans, n, k, 1, a.Data, lda, 0, c.Data, ldc)
	return d.charge(blas.FlopsSyrk(n, k))
}

// Gemm runs the cuBLAS product C = A·Bᵀ (beta = 0) with A m×k, B n×k,
// C m×n, producing the scratch contribution the solver scatters into its
// target block.
func (d *Device) Gemm(m, n, k int, a *Buffer, lda int, b *Buffer, ldb int, c *Buffer, ldc int) float64 {
	d.begin()
	defer d.end()
	blas.Gemm(blas.NoTrans, blas.Transpose, m, n, k, 1, a.Data, lda, b.Data, ldb, 0, c.Data, ldc)
	return d.charge(blas.FlopsGemm(m, n, k))
}

// FallbackPolicy selects what the solver does when a device allocation
// fails (paper §4.2: "fallback options").
type FallbackPolicy uint8

const (
	// FallbackCPU silently performs the computation on the CPU (default).
	FallbackCPU FallbackPolicy = iota
	// FallbackError aborts the factorization so the user can rerun with
	// more device memory.
	FallbackError
)

func (p FallbackPolicy) String() string {
	if p == FallbackCPU {
		return "cpu"
	}
	return "error"
}

// Thresholds holds the per-operation minimum problem sizes (in elements of
// the output buffer) above which an operation is offloaded to the GPU. Each
// operation gets its own threshold because each has a different
// non-asymptotic arithmetic intensity (§4.2).
type Thresholds struct {
	Potrf int
	Trsm  int
	Syrk  int
	Gemm  int
}

// DefaultThresholds mirror the paper's brute-force manual tuning (§4.2),
// here tuned against the modeled Perlmutter costs so that an offloaded
// operation — kernel launch plus PCIe copies — actually beats the CPU at
// the threshold. POTRF needs the largest blocks (small factorizations
// cannot fill the device); GEMM/SYRK amortize earliest thanks to their
// higher arithmetic intensity.
func DefaultThresholds() Thresholds {
	return Thresholds{
		Potrf: 160 * 160,
		Trsm:  128 * 128,
		Syrk:  96 * 96,
		Gemm:  96 * 96,
	}
}

// ShouldOffload applies the per-op threshold to an operation whose output
// buffer holds `elems` elements.
func (t Thresholds) ShouldOffload(op machine.Op, elems int) bool {
	switch op {
	case machine.OpPotrf:
		return elems >= t.Potrf
	case machine.OpTrsm:
		return elems >= t.Trsm
	case machine.OpSyrk:
		return elems >= t.Syrk
	case machine.OpGemm:
		return elems >= t.Gemm
	default:
		return false
	}
}
