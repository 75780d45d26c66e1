// Package nondetflow implements the "nondetflow" analyzer, the suite's
// one definition of a nondeterministic value and the two rules that keep
// such values out of the solver. The paper's fan-out solver is correct
// only because update application follows a strict deterministic order
// regardless of message arrival; Kim et al. (arXiv:1601.05871) identify
// schedule-order leaks as the dominant correctness hazard of
// task-parallel Cholesky. The conformance battery checks that
// dynamically; this analyzer checks it statically.
//
// One table names the sources (source, mapRange): host clock reads
// (time.Now, Since, Until), calls of math/rand's global, unseeded
// generator (the seeded constructors New, NewSource, NewZipf, NewPCG and
// NewChaCha8 are exempt), map iteration order, and %p pointer formatting.
// Two rules read it:
//
//   - The direct rule checks where a source appears. Inside
//     analysis.DeterministicPackages no source may be used at all, and
//     neither may a wait on the host clock (time.Sleep, After, AfterFunc,
//     Tick, NewTimer, NewTicker). Modeled time is machine.Clock; host
//     pacing and statistics go through internal/machine's wall-time
//     facade (WallNow, WallSince, Backoff), which is allowed. A map range
//     is allowed when it binds no variables (`for range m`) or only
//     collects the keys for a sort (`for k := range m { keys =
//     append(keys, k) }`).
//   - The flow rule checks where a source's value goes, in every package.
//     It is an interprocedural taint analysis (sympack/internal/lint/
//     taint) from the table's sources — plus the facade's WallNow and
//     WallSince outside internal/machine, since any wall reading is
//     machine-local and so rank-nondeterministic — to schedule- and
//     numerics-critical sinks: RTQ entries (the fields of core's task),
//     wire and signal payloads in internal/upcxx (Signal targets and
//     messages, NewArrayFrom initializers), scheduling-queue elements
//     (container/heap.Push), trace ordering fields, and factor values
//     entering internal/blas kernels. Flows are chased across function
//     and package boundaries through taint summaries exported as Facts
//     (flowFact): a helper whose parameter reaches a NewArrayFrom in
//     package A is reported at its call site in package B.
//
// Taint dies only two ways: an explicit sort (sort.* / slices.Sort*) of
// the carrying slice, or an audited "//lint:ignore nondetflow <reason>"
// on the source or the assignment. A directive on a source answers both
// rules at once, because the reason is the same for either: this order or
// this reading cannot matter. The taint engine records the directive as
// consumed, so the unusedignore audit treats it as live.
package nondetflow

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"sympack/internal/lint/analysis"
	"sympack/internal/lint/callgraph"
	"sympack/internal/lint/taint"
)

// Name is the analyzer name //lint:ignore directives must use.
const Name = "nondetflow"

var Analyzer = &analysis.Analyzer{
	Name: Name,
	Doc: "flags nondeterministic values (wall clock, unseeded math/rand, map order, %p) " +
		"used directly in deterministic packages, and their flow into schedule-critical " +
		"sinks (RTQ entries, wire payloads, trace ordering, factor values) across call " +
		"and package boundaries",
	Run:       run,
	FactTypes: []analysis.Fact{(*flowFact)(nil)},
}

// flowFact carries a function's taint summary to importing packages.
type flowFact struct{ S taint.Summary }

func (*flowFact) AFact() {}

func (f *flowFact) String() string {
	return fmt.Sprintf("nondetflow(results=%d sinks=%d)", len(f.S.Results), len(f.S.Sinks))
}

// clockReads are the time functions that read the host clock.
var clockReads = map[string]bool{"Now": true, "Since": true, "Until": true}

// clockWaits are the time functions that wait on the host clock. Their
// results carry no reading, so only the direct rule bans them.
var clockWaits = map[string]bool{
	"Sleep": true, "After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// seededRand are the math/rand constructors whose result is a function of
// the seed or generator they are given. A generator seeded from the clock
// still taints: the clock's label rides through the constructor chain
// into the generator's draws.
var seededRand = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
}

// source is the table of nondeterministic sources: it describes the value
// a use of fn yields — called as call, or referenced as a function value
// when call is nil — or returns "" when fn is not a source.
func source(fn *types.Func, call *ast.CallExpr) string {
	if fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
		return "" // methods (t.Sub, rng.Intn) read no ambient state
	}
	switch path := fn.Pkg().Path(); {
	case path == "time" && clockReads[fn.Name()]:
		return "wall clock (time." + fn.Name() + ")"
	case (path == "math/rand" || path == "math/rand/v2") && !seededRand[fn.Name()]:
		return "unseeded math/rand (" + fn.Name() + ")"
	case path == "fmt" && fn.Name() == "Sprintf" && call != nil && hasPointerVerb(call):
		return "pointer formatting (%p)"
	}
	return ""
}

// hasPointerVerb reports whether a printf-style call formats an operand
// with %p.
func hasPointerVerb(call *ast.CallExpr) bool {
	verbs, _ := analysis.FormatVerbs(call)
	for _, v := range verbs {
		if v.Verb == 'p' {
			return true
		}
	}
	return false
}

// mapRange reports whether a range statement iterates a map, whose order
// Go randomizes.
func mapRange(info *types.Info, rs *ast.RangeStmt) bool {
	tv, ok := info.Types[rs.X]
	if !ok {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

func run(pass *analysis.Pass) (interface{}, error) {
	if analysis.DeterministicPackages[pass.Pkg.Path()] {
		direct(pass)
	}
	flow(pass)
	return nil, nil
}

// direct is the direct-use rule: it reports every source, and every wait
// on the host clock, in a deterministic package.
func direct(pass *analysis.Pass) {
	pkg := pass.Pkg.Path()
	calls := map[ast.Expr]*ast.CallExpr{}
	pass.Preorder(func(n ast.Node) {
		switch n := n.(type) {
		case *ast.CallExpr:
			calls[ast.Unparen(n.Fun)] = n
		case *ast.SelectorExpr:
			// A function value (f := time.Now) leaks the clock just as a
			// call does, so references count, not only calls.
			fn, ok := pass.TypesInfo.Uses[n.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return
			}
			desc := source(fn, calls[n])
			switch path := fn.Pkg().Path(); {
			case path == "time" && (desc != "" || (clockWaits[fn.Name()] && fn.Type().(*types.Signature).Recv() == nil)):
				pass.Reportf(n.Pos(),
					"direct time.%s in deterministic package %s; modeled time must use "+
						"machine.Clock, and real pacing/stats must route through the "+
						"machine wall-time facade (machine.WallNow/WallSince/Backoff)",
					fn.Name(), pkg)
			case path == "fmt" && desc != "":
				pass.Reportf(n.Pos(),
					"%%p pointer formatting in deterministic package %s; addresses differ "+
						"between runs, so label or order by a stable key", pkg)
			case desc != "":
				pass.Reportf(n.Pos(),
					"unseeded rand.%s in deterministic package %s; construct an explicitly "+
						"seeded generator (rand.New(rand.NewSource(seed))) so runs replay",
					fn.Name(), pkg)
			}
		case *ast.RangeStmt:
			if !mapRange(pass.TypesInfo, n) || (n.Key == nil && n.Value == nil) || isKeyCollection(n) {
				return // not a map, `for range m` (no order observed), or the key-collection idiom
			}
			pass.Reportf(n.For,
				"map iteration order is randomized and would leak into deterministic state; "+
					"sort the keys first (collect + sort.Slice) or annotate the loop with "+
					"//lint:ignore nondetflow <why the body is order-insensitive>")
		}
	})
}

// isKeyCollection recognizes the pre-sort idiom, a single statement
// appending exactly the key to one slice:
//
//	for k := range m { keys = append(keys, k) }
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

// flow is the flow rule: a taint analysis from the table's sources to the
// sinks below.
func flow(pass *analysis.Pass) {
	inMachine := strings.HasSuffix(pass.Pkg.Path(), "internal/machine")

	spec := taint.Spec{
		Analyzer:         Name,
		PropagateUnknown: true,
		SourceExpr: func(e ast.Expr) string {
			call, ok := e.(*ast.CallExpr)
			if !ok {
				return ""
			}
			fn, path := callgraph.Callee(pass.TypesInfo, call)
			if fn == nil {
				return ""
			}
			if strings.HasSuffix(path, "internal/machine") && !inMachine &&
				(fn.Name() == "WallNow" || fn.Name() == "WallSince") {
				// The facade virtualizes the clock for tests, but a wall
				// reading is still machine-local: rank-nondeterministic.
				return "wall clock (machine." + fn.Name() + ")"
			}
			return source(fn, call)
		},
		RangeSource: func(rs *ast.RangeStmt) string {
			if mapRange(pass.TypesInfo, rs) {
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
			fn, path := callgraph.Callee(pass.TypesInfo, call)
			if (path != "sort" && path != "slices") || len(call.Args) == 0 {
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
}

// callSinks classifies call arguments that feed wire payloads, scheduling
// queues, or factor kernels.
func callSinks(pass *analysis.Pass, call *ast.CallExpr) []taint.SinkUse {
	fn, path := callgraph.Callee(pass.TypesInfo, call)
	if fn == nil {
		return nil
	}
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
		return floatArgs(fn, call, "a factor-kernel input (blas."+fn.Name()+")")
	case strings.HasSuffix(path, "internal/krylov") &&
		(fn.Name() == "Dot" || fn.Name() == "Norm2"):
		// The pairwise reductions behind every CG/PCG residual trajectory:
		// a nondeterministic value feeding Dot or Norm2 breaks the
		// bit-identical-trajectory contract the iter battery pins.
		return floatArgs(fn, call, "a Krylov reduction input (krylov."+fn.Name()+")")
	}
	return nil
}

// floatArgs returns the arguments a call passes for fn's []float64
// parameters, each a sink described by desc.
func floatArgs(fn *types.Func, call *ast.CallExpr, desc string) []taint.SinkUse {
	var uses []taint.SinkUse
	sig := fn.Type().(*types.Signature)
	for i := 0; i < sig.Params().Len() && i < len(call.Args); i++ {
		s, ok := sig.Params().At(i).Type().Underlying().(*types.Slice)
		if !ok {
			continue
		}
		if b, ok := s.Elem().Underlying().(*types.Basic); ok && b.Kind() == types.Float64 {
			uses = append(uses, taint.SinkUse{Value: call.Args[i], Desc: desc})
		}
	}
	return uses
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

// assignSinks flags writes to ordering fields: t.id = v, ev.Start = w.
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
// task{id: v}, Event{Start: w}.
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
