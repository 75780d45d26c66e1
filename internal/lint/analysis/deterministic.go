package analysis

// DeterministicPackages is the scope of nondetflow's direct rule: the
// packages whose results must be a pure function of their inputs, so that
// neither Go's randomized map order, nor the host clock, nor unseeded
// randomness may appear in them at all. It is the one list of these
// packages; documents name it instead of copying it.
var DeterministicPackages = map[string]bool{
	// The numeric and scheduling core: schedules and numerics feed factor
	// bits, which must be identical for any worker or rank count.
	"sympack/internal/core":     true,
	"sympack/internal/symbolic": true,
	"sympack/internal/blas":     true,
	"sympack/internal/des":      true,
	"sympack/internal/metrics":  true,
	// The PGAS runtime and the simulated devices deliver the announcements
	// and transfers whose order the engine's ordered-apply machinery must
	// be immune to, and the chaos harness replays them deterministically;
	// the trace recorder's summaries feed reports that must diff cleanly.
	"sympack/internal/upcxx": true,
	"sympack/internal/gpu":   true,
	"sympack/internal/trace": true,
	// The iterative-solve subsystem promises bit-identical residual
	// trajectories across worker and rank counts.
	"sympack/internal/krylov":  true,
	"sympack/internal/precond": true,
	// The service layer: cache iteration order must never decide what is
	// evicted or reported, every host-clock touchpoint (latency rings,
	// breaker cooldowns, backoff) goes through the machine facade, and
	// loadgen's taxonomy output must be stable across runs.
	"sympack/internal/server": true,
	"sympack/cmd/sympackd":    true,
	"sympack/cmd/loadgen":     true,
	// benchfig emits the committed BENCH_scaling.json artifact from the
	// deterministic performance model; its series order must be stable.
	"sympack/cmd/benchfig": true,
	// The lint suite lints itself: CFG layout, dataflow fixpoints,
	// callgraph resolution and taint propagation decide which diagnostics
	// exist, so they must not flap with map order or a clock.
	"sympack/internal/lint/cfg":       true,
	"sympack/internal/lint/dataflow":  true,
	"sympack/internal/lint/callgraph": true,
	"sympack/internal/lint/taint":     true,
}
