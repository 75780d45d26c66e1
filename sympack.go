// Package sympack is a Go reproduction of symPACK, the GPU-capable fan-out
// sparse Cholesky solver of Bellavita et al. (SC-W 2023,
// doi:10.1145/3624062.3624600). It factors sparse symmetric positive
// definite systems A = L·Lᵀ with an asynchronous task-based supernodal
// algorithm executed over a simulated UPC++-style PGAS runtime, optionally
// offloading large block operations to simulated GPUs with the paper's
// per-operation size thresholds and memory-kinds transfers.
//
// # Quick start
//
//	A := sympack.Laplace2D(100, 100)       // or build via sympack.NewBuilder
//	f, err := sympack.Factorize(A, sympack.Options{Ranks: 4})
//	if err != nil { ... }
//	x, err := f.Solve(b)
//
// The package also exposes the right-looking baseline solver used in the
// paper's evaluation (SolveOnce with UseBaseline), matrix generators for
// the paper's three test-problem regimes, Matrix Market / Rutherford-Boeing
// I/O, and the strong-scaling performance model that regenerates the
// paper's figures (see cmd/benchfig).
package sympack

import (
	"io"
	"time"

	"sympack/internal/baseline"
	"sympack/internal/core"
	"sympack/internal/faults"
	"sympack/internal/gen"
	"sympack/internal/gpu"
	"sympack/internal/krylov"
	"sympack/internal/machine"
	"sympack/internal/matrix"
	"sympack/internal/metrics"
	"sympack/internal/ordering"
	"sympack/internal/precond"
	"sympack/internal/symbolic"
	"sympack/internal/trace"
)

// Matrix is a sparse symmetric matrix holding the lower triangle in
// compressed sparse column form.
type Matrix = matrix.SparseSym

// Builder accumulates matrix entries in coordinate form; symmetric pairs
// are stored once (either triangle).
type Builder = matrix.COO

// NewBuilder returns an n×n coordinate-format builder.
func NewBuilder(n int) *Builder { return matrix.NewCOO(n) }

// OrderingKind selects a fill-reducing ordering for Options.Ordering.
type OrderingKind = ordering.Kind

// Ordering names re-exported for Options.
const (
	OrderNatural          = ordering.Natural
	OrderRCM              = ordering.RCM
	OrderMinDegree        = ordering.MinDegree
	OrderNestedDissection = ordering.NestedDissection // the Scotch stand-in
)

// Thresholds are the per-operation GPU offload sizes (§4.2 of the paper).
type Thresholds = gpu.Thresholds

// DefaultThresholds returns the tuned offload thresholds.
func DefaultThresholds() Thresholds { return gpu.DefaultThresholds() }

// AnalyticThresholds derives offload thresholds from a machine's cost
// model — the hardware-agnostic framework the paper's §6 calls for.
func AnalyticThresholds(m Machine) Thresholds { return gpu.AnalyticThresholds(m) }

// Fallback policies on device out-of-memory (§4.2).
const (
	FallbackCPU   = gpu.FallbackCPU
	FallbackError = gpu.FallbackError
)

// Options configures Factorize. The zero value runs a single-rank CPU
// factorization with nested-dissection ordering.
type Options = core.Options

// SchedulingPolicy orders the engine's ready task queue (paper §3.4).
type SchedulingPolicy = core.SchedulingPolicy

// Scheduling policies for Options.Scheduling.
const (
	SchedFIFO         = core.SchedFIFO
	SchedLIFO         = core.SchedLIFO
	SchedCriticalPath = core.SchedCriticalPath
)

// Formulation selects the task formulation for Options.Formulation: where
// each update's flops execute and whether computed contributions travel to
// the target block's owner (fan-out computes at the target; fan-in at the
// left source operand's owner; fan-both at the transposed operand's owner).
// All formulations are conformance-pinned to produce bit-identical factors.
type Formulation = core.Formulation

// Task formulations for Options.Formulation.
const (
	FanOut  = core.FanOut
	FanIn   = core.FanIn
	FanBoth = core.FanBoth
)

// ParseFormulation parses a formulation name ("fan-out", "fan-in",
// "fan-both", and common abbreviations) as accepted by the CLI flags.
func ParseFormulation(s string) (Formulation, error) { return symbolic.ParseFormulation(s) }

// MappingKind selects the block→process distribution for Options.Mapping.
type MappingKind = core.MappingKind

// Block mappings for Options.Mapping.
const (
	Map2DCyclic = core.Map2DCyclic // 2D block-cyclic (the paper's map(i,j))
	Map1DCols   = core.Map1DCols   // 1D column-cyclic
	MapSubtree  = core.MapSubtree  // proportional to elimination-subtree work
)

// ParseMapping parses a mapping name ("2d-cyclic", "1d-cols", "subtree",
// and common abbreviations) as accepted by the CLI flags.
func ParseMapping(s string) (MappingKind, error) { return symbolic.ParseMapping(s) }

// Factor is a completed Cholesky factorization; call Solve or SolveMulti.
type Factor = core.Factor

// Stats describes what a factorization did (kernel counts per rank, wall
// and modeled time, structural sizes).
type Stats = core.Stats

// ErrNotPositiveDefinite is returned when the input matrix is not SPD.
var ErrNotPositiveDefinite = core.ErrNotPositiveDefinite

// FaultPlan is a seeded deterministic fault-injection plan for the PGAS
// runtime and the simulated devices; set Options.Faults to enable chaos
// testing of a factorization.
type FaultPlan = faults.Plan

// FaultSummary renders the non-zero fault-injection and recovery counters
// of a metrics snapshot — Factor.Metrics.Snapshot() after a factorization or
// a distributed solve — as one line such as "dropped=2 re-requests=1"; it is
// "" when nothing was injected. The counters themselves are the
// sympack_upcxx_* and sympack_gpu_* series the line names.
func FaultSummary(snap MetricsSnapshot) string { return core.FaultSummary(snap) }

// HealthReport is the stall watchdog's structured per-rank diagnosis.
type HealthReport = core.HealthReport

// Typed failure taxonomy, re-exported so callers can branch with errors.Is
// against the facade alone.
var (
	ErrTransient    = core.ErrTransient
	ErrDeviceFailed = core.ErrDeviceFailed
	ErrLostSignal   = core.ErrLostSignal
	ErrStalled      = core.ErrStalled
	// ErrCanceled reports cooperative cancellation: Options.Context was
	// canceled or its deadline passed, and the factorization or solve
	// unwound cleanly at a task boundary (wraps the context cause).
	ErrCanceled = core.ErrCanceled
)

// DefaultChaosPlan returns a moderate plan exercising every recoverable
// fault class (permanent device death is opted into separately).
func DefaultChaosPlan(seed int64) FaultPlan { return faults.DefaultChaos(seed) }

// ParseFaultPlan builds a plan from a spec like
// "drop=0.02,dup=0.02,delay=0.05,transfer=0.02,oom=0.05,stall=0.002"
// (class=rate or class=rate/limit; "all" covers every transient class).
func ParseFaultPlan(spec string, seed int64) (FaultPlan, error) {
	return faults.Parse(spec, seed)
}

// Factorize computes the sparse Cholesky factorization of a using the
// fan-out distributed algorithm of the paper.
func Factorize(a *Matrix, opt Options) (*Factor, error) {
	return core.Factorize(a, opt)
}

// Analysis is a reusable symbolic factorization: the ordering, supernode
// partition and block structure of a matrix's sparsity pattern. Matrices
// sharing a pattern (e.g. A − σI for varying σ, the PEXSI workload of
// §5.3) can be factored repeatedly against one Analysis.
type Analysis struct {
	st  *symbolic.Structure
	opt Options
}

// Analyze runs the symbolic phase once for a matrix's sparsity pattern.
func Analyze(a *Matrix, opt Options) (*Analysis, error) {
	ord := opt.Ordering
	if ord == 0 {
		ord = ordering.NestedDissection
	}
	sopt := symbolic.DefaultOptions()
	if opt.Symbolic != nil {
		sopt = *opt.Symbolic
	}
	st, _, err := symbolic.Analyze(a, ord, sopt)
	if err != nil {
		return nil, err
	}
	return &Analysis{st: st, opt: opt}, nil
}

// NumSupernodes reports the supernode count of the analyzed structure.
func (an *Analysis) NumSupernodes() int { return an.st.NumSupernodes() }

// NnzFactor reports the factor's stored nonzeros (padding included).
func (an *Analysis) NnzFactor() int64 { return an.st.NnzL }

// Flops reports the factorization's floating-point operation count.
func (an *Analysis) Flops() int64 { return an.st.FactorFlop }

// Factorize numerically factors a matrix with this analysis's pattern. The
// matrix must have the same sparsity structure as the one analyzed.
func (an *Analysis) Factorize(a *Matrix) (*Factor, error) {
	pa, err := a.Permute(an.st.Perm)
	if err != nil {
		return nil, err
	}
	return core.FactorizeAnalyzed(an.st, pa, an.opt)
}

// LoadFactor reads a factor previously written with Factor.Save, ready to
// solve and compute selected inverses.
func LoadFactor(r io.Reader) (*Factor, error) { return core.LoadFactor(r) }

// SolveOnce factors and solves in one call, returning x with A·x = b.
func SolveOnce(a *Matrix, b []float64, opt Options) ([]float64, error) {
	f, err := Factorize(a, opt)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}

// ----------------------------------------------------- iterative solves ----

// Precision selects the format the factor is stored and shipped in, for
// Options.Precision. PrecFP32 is float32 storage and wire, fp64 arithmetic,
// rounded once per finalised block (CPU only — the device model prices
// fp64), and transparently retries in fp64 if a pivot breaks down under the
// rounding; pair it with Factor.SolveRefined or SolveCG to recover
// fp64-quality solutions.
type Precision = core.Precision

// Precisions for Options.Precision.
const (
	PrecFP64 = core.PrecFP64
	PrecFP32 = core.PrecFP32
)

// ParsePrecision parses a precision name ("fp64"/"double", "fp32"/"single"/
// "mixed") as accepted by the CLI -precision flags.
func ParsePrecision(s string) (Precision, error) { return core.ParsePrecision(s) }

// PrecondKind selects a preconditioner for SolveCG.
type PrecondKind = precond.Kind

// Preconditioner kinds for CGOptions.Precond.
const (
	PrecondNone = precond.None // unpreconditioned CG
	PrecondIC   = precond.IC   // blocked incomplete Cholesky IC(k)
)

// ParsePrecondKind parses a preconditioner name ("none", "ic") as accepted
// by the CLI -solver flags.
func ParsePrecondKind(s string) (PrecondKind, error) { return precond.ParseKind(s) }

// CGOptions configures SolveCG.
type CGOptions struct {
	// Rtol is the relative convergence tolerance (0 = 1e-8); Atol an
	// absolute floor (0 = none); MaxIter the iteration budget (0 = 10·n,
	// capped at 10000).
	Rtol    float64
	Atol    float64
	MaxIter int
	// Precond selects the preconditioner (default PrecondNone).
	Precond PrecondKind
	// ICLevel is the IC(k) fill level when Precond is PrecondIC.
	ICLevel int
	// DropTol, when positive, magnitude-filters the matrix before the IC
	// level expansion.
	DropTol float64
	// RecordTrajectory retains the per-iteration residual norms in
	// CGResult.Trajectory (bit-identical across worker and rank counts).
	RecordTrajectory bool
	// Metrics, when non-nil, receives the sympack_iter_* series of the
	// solve (and of the preconditioner factorization).
	Metrics *MetricsRegistry
}

// CGResult reports a conjugate-gradient solve.
type CGResult = krylov.Result

// ICPreconditioner is a ready blocked IC(k) preconditioner; build one with
// NewICPreconditioner to amortize across SolveCG calls on one matrix.
type ICPreconditioner = precond.ICFactor

// NewICPreconditioner analyzes and factors an IC(k) preconditioner for a.
// The engine surface in opt (ranks, workers, formulation, mapping,
// precision) applies to the preconditioner's factorization.
func NewICPreconditioner(a *Matrix, level int, dropTol float64, opt Options) (*ICPreconditioner, error) {
	return precond.NewIC(a, precond.Options{Level: level, DropTol: dropTol, Core: opt})
}

// Iterative-solve failure taxonomy, re-exported for errors.Is.
var (
	// ErrIndefinite reports a CG breakdown: the operator or preconditioner
	// is not positive definite on the Krylov space.
	ErrIndefinite = krylov.ErrIndefinite
	// ErrNoConvergence reports iteration-budget exhaustion; the partial
	// CGResult is still returned.
	ErrNoConvergence = krylov.ErrNoConvergence
	// ErrPrecondBreakdown reports that the incomplete factorization broke
	// down at every diagonal shift.
	ErrPrecondBreakdown = precond.ErrBreakdown
)

// SolveCG solves A·x = b by (preconditioned) conjugate gradients. With
// cg.Precond = PrecondIC it builds a blocked IC(cg.ICLevel) factor through
// the distributed engine configured by opt and applies it each iteration;
// with PrecondNone opt only supplies the cancellation context. Residual
// trajectories are bit-identical across worker and rank counts.
func SolveCG(a *Matrix, b []float64, opt Options, cg CGOptions) (*CGResult, error) {
	kopt := krylov.Options{
		Rtol:             cg.Rtol,
		Atol:             cg.Atol,
		MaxIter:          cg.MaxIter,
		Ctx:              opt.Context,
		RecordTrajectory: cg.RecordTrajectory,
	}
	if cg.Metrics != nil {
		kopt.Metrics = metrics.NewIterMetrics(cg.Metrics)
	}
	if cg.Precond == PrecondIC {
		ic, err := NewICPreconditioner(a, cg.ICLevel, cg.DropTol, opt)
		if err != nil {
			return nil, err
		}
		kopt.Precond = ic
	}
	return krylov.Solve(a, b, kopt)
}

// BaselineFactor is a factorization computed by the right-looking baseline
// solver (the PaStiX-like comparator of the paper's §5.3).
type BaselineFactor = baseline.Factor

// FactorizeBaseline runs the right-looking baseline solver.
func FactorizeBaseline(a *Matrix, ord ordering.Kind) (*BaselineFactor, error) {
	return baseline.Factorize(a, baseline.Options{Ordering: ord})
}

// ------------------------------------------------------------- metrics ----

// MetricsRegistry is a typed metric registry (counters, gauges, fixed-
// bucket histograms); Factor.Metrics holds the merged job-wide registry of
// a completed factorization. Set Options.MetricsAddr to also serve it over
// HTTP while the run executes.
type MetricsRegistry = metrics.Registry

// MetricsSnapshot is a point-in-time, JSON-friendly reading of a registry.
type MetricsSnapshot = metrics.Snapshot

// RunReport is the machine-readable summary of one solver run
// (BENCH_<cmd>_<ts>.json); see WriteRunReport.
type RunReport = metrics.RunReport

// MetricsFigure is one benchmark curve inside a RunReport.
type MetricsFigure = metrics.Figure

// MetricsPoint is one (node count, seconds) sample of a MetricsFigure.
type MetricsPoint = metrics.Point

// WriteMetricsText writes a snapshot in Prometheus text exposition format
// (v0.0.4), the same bytes the /metrics endpoint serves.
func WriteMetricsText(w io.Writer, snap MetricsSnapshot) error { return metrics.WriteText(w, snap) }

// WriteRunReport writes a run report as indented JSON.
func WriteRunReport(w io.Writer, rep *RunReport) error { return metrics.WriteRunReport(w, rep) }

// ReportFilename returns the canonical BENCH_<cmd>_<ts>.json name for a
// run report written at t.
func ReportFilename(cmd string, t time.Time) string { return metrics.ReportFilename(cmd, t) }

// TraceRecorder records per-task execution events; pass one via
// Options.Trace and export with WriteChromeTrace.
type TraceRecorder = trace.Recorder

// NewTraceRecorder returns a recorder whose clock starts now.
func NewTraceRecorder() *TraceRecorder { return trace.New() }

// SelInv is a selected inverse: A⁻¹ restricted to the factor's sparsity
// pattern (the PEXSI computation of the paper's §5.3); see
// Factor.SelectedInverse.
type SelInv = core.SelInv

// ResidualNorm returns ‖b − A·x‖₂/‖b‖₂.
func ResidualNorm(a *Matrix, x, b []float64) float64 {
	return core.ResidualNorm(a, x, b)
}

// ---------------------------------------------------------- generators ----

// Laplace2D returns the 5-point Laplacian on an nx×ny grid (SPD).
func Laplace2D(nx, ny int) *Matrix { return gen.Laplace2D(nx, ny) }

// Laplace3D returns the 7-point Laplacian on an nx×ny×nz grid (SPD).
func Laplace3D(nx, ny, nz int) *Matrix { return gen.Laplace3D(nx, ny, nz) }

// Flan3D generates a Flan_1565-like 3D elasticity problem (3 dof per node,
// dense supernodes).
func Flan3D(nx, ny, nz int, seed int64) *Matrix { return gen.Flan3D(nx, ny, nz, seed) }

// Bone3D generates a boneS10-like porous 3D structure.
func Bone3D(nx, ny, nz int, porosity float64, seed int64) *Matrix {
	return gen.Bone3D(nx, ny, nz, porosity, seed)
}

// Thermal2D generates a thermal2-like very sparse irregular problem.
func Thermal2D(nx, ny, voids int, seed int64) *Matrix {
	return gen.Thermal2D(nx, ny, voids, seed)
}

// RandomSPD returns a random SPD matrix with the given lower-triangle
// density.
func RandomSPD(n int, density float64, seed int64) *Matrix {
	return gen.RandomSPD(n, density, seed)
}

// ------------------------------------------------------------------ I/O ----

// ReadMatrixMarket parses a Matrix Market coordinate stream.
func ReadMatrixMarket(r io.Reader) (*Matrix, error) { return matrix.ReadMatrixMarket(r) }

// WriteMatrixMarket writes a matrix in Matrix Market form.
func WriteMatrixMarket(w io.Writer, a *Matrix) error { return matrix.WriteMatrixMarket(w, a) }

// ReadRutherfordBoeing parses a Rutherford-Boeing symmetric matrix.
func ReadRutherfordBoeing(r io.Reader) (*Matrix, error) { return matrix.ReadRutherfordBoeing(r) }

// WriteRutherfordBoeing writes a matrix in Rutherford-Boeing form.
func WriteRutherfordBoeing(w io.Writer, a *Matrix, title string) error {
	return matrix.WriteRutherfordBoeing(w, a, title)
}

// ------------------------------------------------------------- machine ----

// Machine is a platform cost model for the simulated runtime.
type Machine = machine.Machine

// Perlmutter returns the NERSC Perlmutter GPU-node model used throughout
// the paper's evaluation.
func Perlmutter() Machine { return machine.Perlmutter() }
