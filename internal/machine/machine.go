// Package machine describes the execution platform being modeled. The
// paper's experiments run on NERSC Perlmutter GPU nodes (one 64-core AMD
// EPYC 7763, four NVIDIA A100s, four Slingshot-11 NICs); since none of that
// hardware is reachable from a Go test suite, this package captures it as a
// parametric cost model that the simulated GPU (internal/gpu), the simulated
// network (internal/simnet) and the strong-scaling engine (internal/des)
// consume. Only relative magnitudes matter for reproducing the paper's
// figure shapes; the defaults are taken from public Perlmutter
// specifications.
package machine

import (
	"math"
	"sync/atomic"

	"sympack/internal/blas"
)

// Machine is a distributed-memory platform description.
type Machine struct {
	Name string

	// Node shape.
	CoresPerNode int
	GPUsPerNode  int

	// Compute rates in FLOP/s. CPUFlops is per core (the paper runs
	// flat, one process per core); GPUFlops is per GPU at asymptotic
	// FP64 throughput.
	CPUFlops float64
	GPUFlops float64

	// GPU kernel-launch overhead in seconds (invocation + sync), the
	// quantity that makes small-block offload unprofitable (paper §4.2).
	GPULaunchOverhead float64
	// Host↔device copy bandwidth within a node, bytes/s.
	GPUCopyBandwidth float64
	// Host↔device copy setup latency, seconds.
	GPUCopyLatency float64

	// Network parameters per NIC.
	NICLatency   float64 // one-way small-message latency, seconds
	NICBandwidth float64 // large-message bandwidth, bytes/s

	// GDR (GPUDirect RDMA / native memory kinds): when false, transfers
	// touching device memory stage through a host bounce buffer
	// (the "Reference" implementation of Fig. 5).
	GDR bool
	// StagingOverhead is the extra per-transfer latency of the staged
	// path (progress-thread handoff + bounce-buffer management).
	StagingOverhead float64
	// StagingBandwidth is the effective bandwidth of the staged
	// pipeline (bounce copy serializes with the wire).
	StagingBandwidth float64
}

// Perlmutter returns the model of a NERSC Perlmutter GPU node group with
// native memory kinds enabled.
func Perlmutter() Machine {
	return Machine{
		Name:              "perlmutter-gpu",
		CoresPerNode:      64,
		GPUsPerNode:       4,
		CPUFlops:          35e9,   // one Milan core, dense DGEMM
		GPUFlops:          15e12,  // A100 FP64 (sustained, no tensor cores for TRSM/POTRF mix)
		GPULaunchOverhead: 8e-6,   // CUDA launch + sync
		GPUCopyBandwidth:  22e9,   // PCIe 4.0 x16 effective
		GPUCopyLatency:    6e-6,   //
		NICLatency:        2.2e-6, // Slingshot-11 put/get
		NICBandwidth:      23e9,   // ~25 GB/s wire, minus protocol
		GDR:               true,
		StagingOverhead:   12e-6,
		StagingBandwidth:  17.7e9,
	}
}

// Frontier returns a model of an OLCF Frontier node (AMD EPYC "Trento" +
// 4× MI250X, Slingshot-11). The paper's §6 notes symPACK's portability to
// AMD GPUs through UPC++ memory kinds; this model exists to exercise the
// hardware-agnostic parts of the solver (notably the analytical offload
// thresholds) against a second platform.
func Frontier() Machine {
	return Machine{
		Name:              "frontier",
		CoresPerNode:      64,
		GPUsPerNode:       4, // MI250X counted as one device here
		CPUFlops:          32e9,
		GPUFlops:          24e12, // MI250X FP64 vector (both dies)
		GPULaunchOverhead: 11e-6, // HIP launch + sync, a touch above CUDA
		GPUCopyBandwidth:  36e9,  // Infinity Fabric host link
		GPUCopyLatency:    7e-6,
		NICLatency:        2.0e-6,
		NICBandwidth:      24e9,
		GDR:               true,
		StagingOverhead:   13e-6,
		StagingBandwidth:  17e9,
	}
}

// WithoutGDR returns a copy using the reference (host-staged) memory-kinds
// path, the "Reference" series of Fig. 5.
func (m Machine) WithoutGDR() Machine {
	m.GDR = false
	m.Name += "-refkinds"
	return m
}

// Op enumerates the BLAS/LAPACK kernels the solver invokes (paper §3.2).
type Op uint8

const (
	OpPotrf Op = iota
	OpTrsm
	OpSyrk
	OpGemm
	numOps
)

// NumOps is the number of kernel kinds.
const NumOps = int(numOps)

func (o Op) String() string {
	switch o {
	case OpPotrf:
		return "POTRF"
	case OpTrsm:
		return "TRSM"
	case OpSyrk:
		return "SYRK"
	case OpGemm:
		return "GEMM"
	default:
		return "OP?"
	}
}

// KernelFlops returns the flop count of an operation with the solver's
// block geometry: m = block rows, n = supernode width, k = inner dimension
// (rows of the transposed operand for GEMM/SYRK; unused for POTRF/TRSM).
func KernelFlops(op Op, m, n, k int) int64 {
	switch op {
	case OpPotrf:
		return blas.FlopsPotrf(n)
	case OpTrsm:
		return blas.FlopsTrsm(blas.Right, m, n)
	case OpSyrk:
		return blas.FlopsSyrk(m, n)
	case OpGemm:
		return blas.FlopsGemm(m, k, n)
	default:
		return 0
	}
}

// CPUTime returns the modeled wall time of running `flops` on one core.
// Small kernels run below peak; a fixed call overhead plus an efficiency
// taper keeps tiny operations from looking free.
func (m *Machine) CPUTime(flops int64) float64 {
	const callOverhead = 1e-7 // BLAS dispatch etc.
	eff := 1.0
	if flops < 1e5 {
		eff = 0.35 // out of cache warmup, loop overheads
	} else if flops < 1e7 {
		eff = 0.7
	}
	return callOverhead + float64(flops)/(m.CPUFlops*eff)
}

// GPUTime returns the modeled wall time of running `flops` as one kernel on
// the GPU, excluding data movement: the launch overhead dominates small
// kernels, which is exactly what the paper's offload thresholds exploit.
func (m *Machine) GPUTime(flops int64) float64 {
	eff := 1.0
	if flops < 1e7 {
		eff = 0.15 // far from saturating 100k+ threads
	} else if flops < 1e9 {
		eff = 0.55
	}
	return m.GPULaunchOverhead + float64(flops)/(m.GPUFlops*eff)
}

// HostDeviceCopyTime returns the modeled time to move `bytes` between host
// and device memory within one node.
func (m *Machine) HostDeviceCopyTime(bytes int64) float64 {
	return m.GPUCopyLatency + float64(bytes)/m.GPUCopyBandwidth
}

// Clock is an accumulator of modeled seconds, used by the runtime to
// attribute virtual time to ranks. It is safe for concurrent use: with the
// engine's helper workers, several goroutines charge kernel time to one
// rank's clock at once, so Advance is a lock-free CAS add.
type Clock struct {
	bits atomic.Uint64 // float64 seconds, as IEEE-754 bits
}

// Advance adds dt seconds.
func (c *Clock) Advance(dt float64) {
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + dt)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Seconds returns the accumulated time.
func (c *Clock) Seconds() float64 { return math.Float64frombits(c.bits.Load()) }
