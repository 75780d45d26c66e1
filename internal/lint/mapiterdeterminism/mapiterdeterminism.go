// Package mapiterdeterminism flags `for range` over maps in the solver's
// numeric and scheduling packages. Go randomizes map iteration order, so
// any map-ordered loop in code that touches factor values, task schedules,
// or RPC emission leaks nondeterminism straight into the bits of L — the
// exact class of schedule-order bug the fan-out solver's bit-identical
// factor guarantee (DESIGN.md §9, property harness prop_test.go) exists to
// exclude. Kim et al. (arXiv:1601.05871) identify schedule-order leaks as
// the dominant correctness hazard of task-parallel Cholesky on 2D block
// layouts; this analyzer makes the discipline mechanical.
//
// The analyzer permits two shapes without annotation:
//
//   - `for range m` with no iteration variables (order unobservable), and
//   - the canonical key-collection idiom, a single-statement body
//     `keys = append(keys, k)`, whose result the caller is expected to
//     sort before use (pair it with sort.Slice / slices.Sort).
//
// Every other map range in a deterministic package needs either a sort of
// the keys first or an audited `//lint:ignore mapiterdeterminism <reason>`
// explaining why the body is order-insensitive.
package mapiterdeterminism

import (
	"go/ast"
	"go/types"

	"sympack/internal/lint/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "mapiterdeterminism",
	Doc: "flags map iteration in deterministic packages, where Go's randomized " +
		"map order would leak into factor bits or RPC schedules",
	Run: run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !analysis.DeterministicPackages[pass.Pkg.Path()] {
		return nil, nil
	}
	pass.Preorder(func(n ast.Node) {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return
		}
		tv, ok := pass.TypesInfo.Types[rs.X]
		if !ok {
			return
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return
		}
		if rs.Key == nil && rs.Value == nil {
			return // `for range m {}`: iteration order is unobservable
		}
		if isKeyCollection(rs) {
			return
		}
		pass.Reportf(rs.For,
			"map iteration order is randomized and would leak into deterministic state; "+
				"sort the keys first (collect + sort.Slice) or annotate the loop with "+
				"//lint:ignore mapiterdeterminism <why the body is order-insensitive>")
	})
	return nil, nil
}

// isKeyCollection recognizes the blessed pre-sort idiom:
//
//	for k := range m { keys = append(keys, k) }
//
// (single statement, appending exactly the key to one slice).
func isKeyCollection(rs *ast.RangeStmt) bool {
	if rs.Value != nil || rs.Key == nil || len(rs.Body.List) != 1 {
		return false
	}
	key, ok := rs.Key.(*ast.Ident)
	if !ok {
		return false
	}
	as, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	dst, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || fn.Name != "append" {
		return false
	}
	src, ok := call.Args[0].(*ast.Ident)
	if !ok || src.Name != dst.Name {
		return false
	}
	arg, ok := call.Args[1].(*ast.Ident)
	return ok && arg.Name == key.Name
}
