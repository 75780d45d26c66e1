package metrics

// IterMetrics is the instrumentation bundle of the iterative-solve
// subsystem (internal/krylov + internal/precond): the sympack_iter_*
// namespace. Like coreMetrics, every series registers eagerly so registries
// holding the bundle expose the full inventory at zero and stay
// layout-identical across runs. Histograms observe deterministic quantities
// only — residual norms, whose bits are identical across worker and rank
// counts by the drivers' fixed reduction order — except the preconditioner
// apply-time series, which is wall-clock by nature and therefore varies run
// to run the way the plain counters do.
type IterMetrics struct {
	// Iterations counts Krylov iterations across solves; MatVecs the
	// operator applications (the comparable cost unit between CG and PCG).
	Iterations *Counter
	MatVecs    *Counter
	// Converged/Breakdowns split solve outcomes: converged within budget
	// vs terminated by an indefiniteness breakdown (ErrIndefinite).
	Converged  *Counter
	Breakdowns *Counter
	// ResidualNorm observes the final relative residual of each solve.
	ResidualNorm *Histogram
	// PrecondApplySeconds observes the wall time of each preconditioner
	// application (the M⁻¹r solve inside PCG).
	PrecondApplySeconds *Histogram
}

// ResidualBuckets spans relative residuals from machine epsilon to O(1):
// decade buckets 1e-16 … 1e+1.
func ResidualBuckets() []float64 { return ExpBuckets(1e-16, 10, 18) }

// NewIterMetrics registers the iterative-solve bundle on reg (get-or-create:
// safe to call on a registry that already holds the series).
func NewIterMetrics(reg *Registry) *IterMetrics {
	return &IterMetrics{
		Iterations: reg.Counter("sympack_iter_iterations_total",
			"Krylov iterations performed"),
		MatVecs: reg.Counter("sympack_iter_matvecs_total",
			"operator applications performed"),
		Converged: reg.Counter("sympack_iter_converged_total",
			"iterative solves that reached their tolerance"),
		Breakdowns: reg.Counter("sympack_iter_breakdowns_total",
			"iterative solves terminated by an indefiniteness breakdown"),
		ResidualNorm: reg.Histogram("sympack_iter_residual_norm",
			"final relative residual of each iterative solve",
			ResidualBuckets()),
		PrecondApplySeconds: reg.Histogram("sympack_iter_precond_apply_seconds",
			"wall time per preconditioner application",
			SecondsBuckets()),
	}
}
