// Package nondetflow implements the "nondetflow" analyzer: an
// interprocedural taint check proving that no nondeterministic value
// reaches a schedule- or numerics-critical sink. The paper's fan-out
// solver is correct only because update application follows a strict
// deterministic order regardless of message arrival; the conformance
// battery checks that dynamically, and the intraprocedural suite
// (mapiterdeterminism, wallclock) polices the sources one function at a
// time — but a map-ordered slice laundered through two helper calls into
// an RTQ entry or a published array was invisible until now.
//
// Sources: map iteration order, wall clock readings (time.Now/Since and
// the machine facade's WallNow/WallSince — any wall reading is
// machine-local and therefore rank-nondeterministic), unseeded math/rand,
// and %p pointer formatting. Sinks: RTQ entries (writes to the fields of
// core's task), wire/signal payloads in internal/upcxx
// (Signal targets and messages, NewArrayFrom initializers),
// scheduling-queue elements (container/heap.Push), trace
// ordering fields, and factor values entering internal/blas kernels.
//
// Taint dies only two ways: an explicit sort (sort.* / slices.Sort*) of
// the carrying slice, or an audited "//lint:ignore nondetflow <reason>"
// on the source or the assignment — which the engine records as consumed
// so the unusedignore audit treats the directive as live.
//
// Flows are chased across function and package boundaries through
// sympack/internal/lint/taint summaries exported as Facts (flowFact) into
// the driver's in-process store: a helper whose parameter reaches a
// NewArrayFrom in package A is reported at its call site in package B.
package nondetflow

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"sympack/internal/lint/analysis"
	"sympack/internal/lint/taint"
)

// Name is the analyzer name //lint:ignore directives must use.
const Name = "nondetflow"

var Analyzer = &analysis.Analyzer{
	Name: Name,
	Doc: "detects nondeterministic values (map order, wall clock, math/rand, %p) " +
		"flowing into schedule-critical sinks (RTQ entries, wire payloads, trace ordering, " +
		"factor values), across call and package boundaries",
	Run:       run,
	FactTypes: []analysis.Fact{(*flowFact)(nil)},
}

// flowFact carries a function's taint summary to importing packages.
type flowFact struct{ S taint.Summary }

func (*flowFact) AFact() {}

func (f *flowFact) String() string {
	return fmt.Sprintf("nondetflow(results=%d sinks=%d)", len(f.S.Results), len(f.S.Sinks))
}

func run(pass *analysis.Pass) (interface{}, error) {
	inMachine := strings.HasSuffix(pass.Pkg.Path(), "internal/machine")

	spec := taint.Spec{
		Analyzer:         Name,
		PropagateUnknown: true,
		SourceExpr: func(e ast.Expr) string {
			call, ok := e.(*ast.CallExpr)
			if !ok {
				return ""
			}
			fn := calleeOf(pass.TypesInfo, call)
			if fn == nil {
				return ""
			}
			path := pkgPath(fn)
			switch {
			case path == "time" && (fn.Name() == "Now" || fn.Name() == "Since"):
				return "wall clock (time." + fn.Name() + ")"
			case strings.HasSuffix(path, "internal/machine") && !inMachine &&
				(fn.Name() == "WallNow" || fn.Name() == "WallSince"):
				// The facade virtualizes the clock for tests, but a wall
				// reading is still machine-local: rank-nondeterministic.
				return "wall clock (machine." + fn.Name() + ")"
			case (path == "math/rand" || path == "math/rand/v2") && fn.Type().(*types.Signature).Recv() == nil &&
				fn.Name() != "New" && fn.Name() != "NewSource" && fn.Name() != "NewPCG" && fn.Name() != "NewChaCha8":
				// Constructors are not sources: rand.New(rand.NewSource(7))
				// is explicitly seeded and reproducible. A generator seeded
				// from the clock still taints — the wall-clock label rides
				// through NewSource and New into the *Rand's method results
				// (PropagateUnknown carries receiver taint into results).
				return "unseeded math/rand (" + fn.Name() + ")"
			case path == "fmt" && fn.Name() == "Sprintf" && formatHasPointerVerb(call):
				return "pointer formatting (%p)"
			}
			return ""
		},
		RangeSource: func(rs *ast.RangeStmt) string {
			tv, ok := pass.TypesInfo.Types[rs.X]
			if !ok {
				return ""
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
				return "map iteration order"
			}
			return ""
		},
		Sinks: func(n ast.Node) []taint.SinkUse {
			switch n := n.(type) {
			case *ast.CallExpr:
				return callSinks(pass, n)
			case *ast.AssignStmt:
				return assignSinks(pass, n)
			case *ast.CompositeLit:
				return compositeSinks(pass, n)
			}
			return nil
		},
		Kills: func(call *ast.CallExpr) []ast.Expr {
			fn := calleeOf(pass.TypesInfo, call)
			if fn == nil || len(call.Args) == 0 {
				return nil
			}
			path := pkgPath(fn)
			if path != "sort" && path != "slices" {
				return nil
			}
			switch fn.Name() {
			case "Sort", "Stable", "Slice", "SliceStable", "Strings", "Ints",
				"Float64s", "SortFunc", "SortStableFunc":
				return []ast.Expr{call.Args[0]}
			}
			return nil
		},
		Lookup: func(fn *types.Func) (taint.Summary, bool) {
			var f flowFact
			if pass.ImportObjectFact(fn, &f) {
				return f.S, true
			}
			return taint.Summary{}, false
		},
	}

	res := taint.Run(pass, spec)

	for _, f := range res.Findings {
		msg := fmt.Sprintf("nondeterministic value (%s) flows into %s", f.Source, f.Sink)
		if f.Via != "" {
			msg += " via " + f.Via
		}
		msg += "; order explicitly (sort) or justify with //lint:ignore nondetflow"
		pass.Reportf(f.Pos, "%s", msg)
	}

	// Export summaries in deterministic (source) order.
	for _, node := range res.Graph.Nodes {
		if sum, ok := res.Summaries[node.Func]; ok && !sum.Empty() {
			fact := flowFact{S: sum}
			pass.ExportObjectFact(node.Func, &fact)
		}
	}
	return nil, nil
}

// calleeOf statically resolves a call's target function, or nil.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

func pkgPath(fn *types.Func) string {
	if p := fn.Pkg(); p != nil {
		return p.Path()
	}
	return ""
}

// formatHasPointerVerb reports whether a call's first argument is a string
// literal containing a %p verb.
func formatHasPointerVerb(call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
	if !ok {
		return false
	}
	for i := 0; i+1 < len(lit.Value); i++ {
		if lit.Value[i] == '%' {
			if lit.Value[i+1] == '%' {
				i++
				continue
			}
			// Skip flags/width between % and the verb.
			j := i + 1
			for j < len(lit.Value) && strings.ContainsRune("+-# 0123456789.[]*", rune(lit.Value[j])) {
				j++
			}
			if j < len(lit.Value) && lit.Value[j] == 'p' {
				return true
			}
		}
	}
	return false
}

// callSinks classifies call arguments that feed wire payloads, scheduling
// queues, or factor kernels.
func callSinks(pass *analysis.Pass, call *ast.CallExpr) []taint.SinkUse {
	fn := calleeOf(pass.TypesInfo, call)
	if fn == nil {
		return nil
	}
	path := pkgPath(fn)
	arg := func(i int) (ast.Expr, bool) {
		if i < len(call.Args) {
			return call.Args[i], true
		}
		return nil, false
	}
	switch {
	case strings.HasSuffix(path, "internal/upcxx"):
		switch fn.Name() {
		case "NewArrayFrom":
			if a, ok := arg(0); ok {
				return []taint.SinkUse{{Value: a, Desc: "a wire-visible array initialization"}}
			}
		case "Signal":
			// A signal is the runtime's remote procedure call: the rank it
			// goes to and the message it carries (kind, id, sweep bit) both
			// decide what runs where.
			var uses []taint.SinkUse
			if a, ok := arg(0); ok {
				uses = append(uses, taint.SinkUse{Value: a, Desc: "an RPC target rank"})
			}
			if a, ok := arg(1); ok {
				uses = append(uses, taint.SinkUse{Value: a, Desc: "a signal payload"})
			}
			return uses
		}
	case path == "container/heap" && fn.Name() == "Push":
		if a, ok := arg(1); ok {
			return []taint.SinkUse{{Value: a, Desc: "a scheduling-queue element"}}
		}
	case strings.HasSuffix(path, "internal/blas") && fn.Exported():
		var uses []taint.SinkUse
		sig := fn.Type().(*types.Signature)
		for i := 0; i < sig.Params().Len() && i < len(call.Args); i++ {
			if isFloatSlice(sig.Params().At(i).Type()) {
				uses = append(uses, taint.SinkUse{
					Value: call.Args[i],
					Desc:  "a factor-kernel input (blas." + fn.Name() + ")",
				})
			}
		}
		return uses
	case strings.HasSuffix(path, "internal/krylov") &&
		(fn.Name() == "Dot" || fn.Name() == "Norm2"):
		// The pairwise reductions behind every CG/PCG residual trajectory:
		// a nondeterministic value feeding Dot or Norm2 breaks the
		// bit-identical-trajectory contract the iter battery pins.
		var uses []taint.SinkUse
		sig := fn.Type().(*types.Signature)
		for i := 0; i < sig.Params().Len() && i < len(call.Args); i++ {
			if isFloatSlice(sig.Params().At(i).Type()) {
				uses = append(uses, taint.SinkUse{
					Value: call.Args[i],
					Desc:  "a Krylov reduction input (krylov." + fn.Name() + ")",
				})
			}
		}
		return uses
	}
	return nil
}

func isFloatSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Float64
}

// orderFields lists, per sink-carrying type, the fields whose values
// decide scheduling or trace order.
var orderFields = map[string]map[string]string{
	"internal/core|task": {
		"kind": "the RTQ entry field task.kind",
		"id":   "the RTQ entry field task.id",
	},
	"internal/trace|Event": {
		"Start": "the trace-ordering field Event.Start",
		"End":   "the trace-ordering field Event.End",
	},
}

// fieldSinkDesc reports whether assigning the named field of type t is a
// sink.
func fieldSinkDesc(t types.Type, field string) string {
	for t != nil {
		if ptr, ok := t.Underlying().(*types.Pointer); ok {
			t = ptr.Elem()
			continue
		}
		break
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	path := named.Obj().Pkg().Path()
	for key, fields := range orderFields {
		pkgSuffix, typeName, _ := strings.Cut(key, "|")
		if typeName == named.Obj().Name() && strings.HasSuffix(path, pkgSuffix) {
			return fields[field]
		}
	}
	return ""
}

// assignSinks flags writes to ordering fields: t.seq = v, ev.Start = w.
func assignSinks(pass *analysis.Pass, n *ast.AssignStmt) []taint.SinkUse {
	if len(n.Lhs) != len(n.Rhs) {
		return nil
	}
	var uses []taint.SinkUse
	for i, lhs := range n.Lhs {
		sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
		if !ok {
			continue
		}
		tv, ok := pass.TypesInfo.Types[sel.X]
		if !ok {
			continue
		}
		if desc := fieldSinkDesc(tv.Type, sel.Sel.Name); desc != "" {
			uses = append(uses, taint.SinkUse{Value: n.Rhs[i], Desc: desc})
		}
	}
	return uses
}

// compositeSinks flags ordering fields initialized in composite literals:
// task{seq: v}, Event{Start: w}.
func compositeSinks(pass *analysis.Pass, n *ast.CompositeLit) []taint.SinkUse {
	tv, ok := pass.TypesInfo.Types[n]
	if !ok {
		return nil
	}
	var uses []taint.SinkUse
	for _, elt := range n.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		if desc := fieldSinkDesc(tv.Type, key.Name); desc != "" {
			uses = append(uses, taint.SinkUse{Value: kv.Value, Desc: desc})
		}
	}
	return uses
}
