// Package atomicconsistency keeps shared counters on typed atomics. A
// field accessed through sync/atomic in one place and by plain load or
// store in another is the torn-counter bug the worker-pool migration
// (PR 2, DESIGN.md §9) fixed by hand when the engine's clock, op counters
// and demotion flag became shared between executor goroutines: a single
// plain read can observe a stale value, and a single plain write can lose
// a concurrent atomic increment.
//
// Typed atomics (atomic.Int64 et al.) are immune by construction, since
// their value is unreachable except through methods, and the tree uses
// nothing else. So the analyzer reports every call of an old-style,
// pointer-taking sync/atomic function (atomic.AddInt64(&x.f, 1),
// atomic.LoadUint32(&g), ...): a field only ever reached that way can be
// a typed atomic, and a field also reached plainly is the bug itself.
package atomicconsistency

import (
	"go/ast"
	"go/types"

	"sympack/internal/lint/analysis"
	"sympack/internal/lint/callgraph"
)

var Analyzer = &analysis.Analyzer{
	Name: "atomicconsistency",
	Doc: "flags old-style sync/atomic functions taking a raw pointer; shared " +
		"counters must be typed atomics, which no plain load or store can tear",
	Run: run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	pass.Preorder(func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		fn, path := callgraph.Callee(pass.TypesInfo, call)
		if path != "sync/atomic" || fn.Type().(*types.Signature).Recv() != nil {
			return // methods of typed atomics take no raw pointers
		}
		pass.Reportf(call.Pos(),
			"atomic.%s takes a raw pointer, so the same variable can also be read or "+
				"written plainly; make it a typed atomic (atomic.Int64 and friends)",
			fn.Name())
	})
	return nil, nil
}
