// Package precond builds the blocked incomplete-Cholesky preconditioner of
// the iterative-solve subsystem: IC(k) symbolic analysis (internal/
// symbolic.AnalyzeIC) produces a level-limited block structure, the fan-out
// engine (internal/core) factors it through the ordinary task protocol —
// skipping contributions whose fill was dropped — and the resulting factor
// serves z = (L·Lᵀ)⁻¹·r applications inside PCG (internal/krylov). This is
// the reuse Kim et al.'s partitioned-block incomplete Cholesky paper
// (PAPERS.md) makes of exactly this supernodal machinery.
//
// Incomplete factorizations of SPD matrices can break down (a dropped
// contribution leaves a pivot ≤ 0); NewIC retries with a Manteuffel-style
// diagonal shift, σ escalating geometrically, until the factorization
// succeeds or maxShiftAttempts run out.
//
// IC(k) always uses the natural ordering: a fill-reducing ordering makes
// the incomplete factor a worse approximation and costs PCG iterations
// (EXPERIMENTS.md, "IC ordering"), so Core.Ordering is not consulted.
package precond

import (
	"errors"
	"fmt"
	"strings"

	"sympack/internal/core"
	"sympack/internal/matrix"
	"sympack/internal/ordering"
	"sympack/internal/symbolic"
)

// Kind names a preconditioner choice for CLIs and the facade.
type Kind uint8

const (
	// None runs unpreconditioned CG.
	None Kind = iota
	// IC applies the blocked IC(k) incomplete Cholesky factor.
	IC
)

func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case IC:
		return "ic"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// ParseKind converts a command-line style name into a Kind.
func ParseKind(s string) (Kind, error) {
	switch strings.ToLower(s) {
	case "", "none", "identity":
		return None, nil
	case "ic", "ic(k)", "ichol":
		return IC, nil
	default:
		return None, fmt.Errorf("precond: unknown preconditioner %q (want none or ic)", s)
	}
}

// Options tunes the IC(k) preconditioner.
type Options struct {
	// Level is the fill level k (default 0; 1 is the usual sweet spot).
	Level int
	// DropTol, when positive, magnitude-filters the matrix before level
	// expansion (see symbolic.ICOptions).
	DropTol float64
	// Core configures the factorization engine used to compute the
	// incomplete factor: ranks, workers, formulation, mapping, precision —
	// the full distributed surface applies to the preconditioner build.
	// Its Ordering does not: IC(k) always orders naturally.
	Core core.Options
}

// maxShiftAttempts bounds the diagonal-shift retry loop on breakdown: the
// last shift tried is 1e-3 · 4⁶ ≈ 4.1 times the mean diagonal.
const maxShiftAttempts = 8

// ICFactor is a ready incomplete-Cholesky preconditioner.
type ICFactor struct {
	// F is the blocked incomplete factor; F.St.Incomplete is true.
	F *core.Factor
	// Shift is the diagonal shift σ that made the factorization succeed
	// (0 when the unshifted matrix factored).
	Shift float64
	// Attempts is the number of factorization attempts performed (1 when
	// no breakdown occurred).
	Attempts int
}

// ErrBreakdown is returned when every shifted attempt failed.
var ErrBreakdown = errors.New("precond: incomplete factorization broke down at every shift")

// NewIC analyzes, in the natural ordering, and factors the IC(k)
// preconditioner for a. The symbolic phase runs once; breakdowns retry the
// numeric phase on a diagonally shifted copy (σ starting at 1e-3 of the
// mean diagonal, ×4 per attempt).
func NewIC(a *matrix.SparseSym, opt Options) (*ICFactor, error) {
	symOpt := symbolic.DefaultOptions()
	if opt.Core.Symbolic != nil {
		symOpt = *opt.Core.Symbolic
	}
	st, pa, err := symbolic.AnalyzeIC(a, ordering.Natural, symOpt,
		symbolic.ICOptions{Level: opt.Level, DropTol: opt.DropTol})
	if err != nil {
		return nil, err
	}
	var mean float64
	for _, d := range pa.Diag() {
		mean += d
	}
	mean /= float64(pa.N)
	if mean <= 0 {
		mean = 1
	}

	ic := &ICFactor{}
	shift := 0.0
	next := 1e-3 * mean
	var lastErr error
	for i := 0; i < maxShiftAttempts; i++ {
		ic.Attempts++
		m := pa
		if shift > 0 {
			if m, err = pa.ShiftDiag(shift); err != nil {
				return nil, err
			}
		}
		f, ferr := core.FactorizeAnalyzed(st, m, opt.Core)
		if ferr == nil {
			ic.F = f
			ic.Shift = shift
			return ic, nil
		}
		if !errors.Is(ferr, core.ErrNotPositiveDefinite) {
			return nil, ferr
		}
		lastErr = ferr
		shift = next
		next *= 4
	}
	return nil, fmt.Errorf("%w after %d attempts (last shift %g): %v", ErrBreakdown, ic.Attempts, shift/4, lastErr)
}

// Apply solves L·Lᵀ·z = r, the PCG preconditioner application. The factor's
// triangular solves handle the fill-reducing permutation internally, so r
// and z are in the original (unpermuted) index space like every other
// solver entry point.
func (ic *ICFactor) Apply(z, r []float64) error {
	x, err := ic.F.Solve(r)
	if err != nil {
		return err
	}
	copy(z, x)
	return nil
}

// Bytes estimates the resident size of the preconditioner (factor block
// storage), for byte-budgeted caches.
func (ic *ICFactor) Bytes() int64 {
	var n int64
	for _, blk := range ic.F.Data {
		n += int64(len(blk)) * 8
	}
	return n + int64(ic.F.St.NnzL/8) // block values + a structure estimate
}
