// Package wallclock flags direct wall-clock and unseeded-randomness use in
// the solver's deterministic packages. The factorization's bit-identity
// guarantee (same factor bits for any worker/rank count, DESIGN.md §9)
// requires that no numeric or scheduling decision depend on real time or
// on ambient randomness: modeled time lives in internal/machine's virtual
// Clock, PRNGs are seeded explicitly (internal/gen), and the few places
// that legitimately touch the host clock — watchdog pacing, idle backoff,
// wall-time statistics — must route through internal/machine's wall-time
// facade (machine.WallNow / machine.WallSince / machine.Backoff) so that
// every wall-clock touchpoint is enumerable in one file and auditable as
// "pacing only, never feeds factor bits".
//
// The analyzer reports, inside the deterministic package set:
//
//   - references to time.Now, time.Since, time.Sleep, time.After,
//     time.Tick, time.NewTimer, time.NewTicker, and
//   - calls of math/rand's global-state (unseeded) top-level functions;
//     rand.New(rand.NewSource(seed)) and methods of an explicit *rand.Rand
//     remain allowed.
//
// Genuinely wall-clock components (the trace recorder's timestamps) carry
// an audited //lint:ignore wallclock <reason>.
package wallclock

import (
	"go/ast"
	"go/types"

	"sympack/internal/lint/analysis"
)

// bannedTime are the time functions that read or wait on the host clock.
var bannedTime = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// seededRand are the math/rand entry points that construct explicitly
// seeded state and are therefore allowed; every other top-level rand
// function draws from the global, nondeterministically-seeded source.
var seededRand = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
}

var Analyzer = &analysis.Analyzer{
	Name: "wallclock",
	Doc: "flags direct time.Now/time.Sleep and unseeded math/rand in " +
		"deterministic packages; wall-clock access must route through " +
		"internal/machine's facade",
	Run: run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !analysis.DeterministicPackages[pass.Pkg.Path()] {
		return nil, nil
	}
	pass.Preorder(func(n ast.Node) {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return
		}
		if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
			return // methods (t.Sub, rng.Intn, ...) are fine
		}
		switch fn.Pkg().Path() {
		case "time":
			if bannedTime[fn.Name()] {
				pass.Reportf(sel.Pos(),
					"direct time.%s in deterministic package %s; modeled time must use "+
						"machine.Clock, and real pacing/stats must route through the "+
						"machine wall-time facade (machine.WallNow/WallSince/Backoff)",
					fn.Name(), pass.Pkg.Path())
			}
		case "math/rand", "math/rand/v2":
			if !seededRand[fn.Name()] {
				pass.Reportf(sel.Pos(),
					"unseeded rand.%s in deterministic package %s; construct an explicitly "+
						"seeded generator (rand.New(rand.NewSource(seed))) so runs replay",
					fn.Name(), pass.Pkg.Path())
			}
		}
	})
	return nil, nil
}
