package core

import (
	"fmt"
	"strings"
)

// Precision selects the format the factor is stored and shipped in. The
// kernels are fp64 either way.
type Precision uint8

const (
	// PrecFP64 is the default: double-precision storage throughout.
	PrecFP64 Precision = iota
	// PrecFP32 is float32 storage and wire, fp64 arithmetic, rounded once
	// per finalised block: POTRF/TRSM/SYRK/GEMM and the update
	// accumulation run in double precision, and each factor block is
	// rounded through float32 (blas.Round32) when its D or F task
	// finalises it, so every stored and shipped factor value is a float32
	// value — held in the engine's []float64 blocks — and the
	// communication model charges 4 bytes per element instead of 8. Such a
	// factor carries ~1e-7 relative error; pair it with
	// Factor.SolveRefined, whose fp64 residual loop restores
	// double-precision accuracy — the classic mixed-precision
	// factor-then-refine scheme. If a pivot breaks down because the blocks
	// under it were rounded, on a matrix that is SPD in fp64,
	// FactorizeAnalyzed retries the whole factorization in fp64 (counted
	// by sympack_iter_fp32_fallbacks_total).
	PrecFP32
)

func (p Precision) String() string {
	switch p {
	case PrecFP64:
		return "fp64"
	case PrecFP32:
		return "fp32"
	default:
		return fmt.Sprintf("Precision(%d)", uint8(p))
	}
}

// ParsePrecision converts a command-line style name into a Precision.
func ParsePrecision(s string) (Precision, error) {
	switch strings.ToLower(s) {
	case "", "fp64", "double", "f64":
		return PrecFP64, nil
	case "fp32", "single", "f32", "mixed":
		return PrecFP32, nil
	default:
		return PrecFP64, fmt.Errorf("core: unknown precision %q (want fp64 or fp32)", s)
	}
}

// elemBytes is the modeled wire width per element for the upcxx config.
func (p Precision) elemBytes() int {
	if p == PrecFP32 {
		return 4
	}
	return 0 // default: 8
}

// fp32 reports whether this engine stores its factor blocks as float32
// values.
func (e *engine) fp32() bool { return e.opt.Precision == PrecFP32 }
