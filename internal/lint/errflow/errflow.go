// Package errflow implements the "errflow" analyzer: an interprocedural
// taint check proving that the fault taxonomy survives error plumbing.
// The engine's degradation ladder (core's retries of transient faults,
// its demotion of a rank whose device died to CPU kernels) keys every
// retry/abort/degrade decision on errors.Is against the taxonomy
// sentinels — ErrTransient, ErrLostSignal, ErrDeviceFailed, ErrStalled,
// ErrTransferFailed. An
// error that *derives* from a sentinel but no longer matches it under
// errors.Is silently demotes a retryable fault to a fatal one (or vice
// versa), which is exactly the class of bug the fault-injection battery
// can only catch if the schedule happens to trip it.
//
// Sources are reads of the sentinel variables. Taint follows assignments,
// %w wrapping (fmt.Errorf with a literal format), errors.Join, and
// Error()/Sprintf stringification; it crosses function and package
// boundaries through sympack/internal/lint/taint summaries exported as
// Facts. Sinks are the taxonomy-erasing operations:
//
//   - fmt.Errorf rewrapping a sentinel-derived error with %v/%s/%q
//     instead of %w — errors.Is can no longer see the sentinel;
//   - errors.New over sentinel-derived text (err.Error(), Sprintf);
//   - type assertions and type switches on sentinel-derived errors —
//     wrapping breaks them where errors.As would not;
//   - the swallow shape `if err != nil { return nil }` on a
//     sentinel-derived error with no errors.Is/errors.As consult — the
//     taxonomy verdict is dropped without being read;
//   - a discarded sentinel-derived error: a call with an error result
//     used as a bare statement, assigned wholly to _, or run by go or
//     defer. A transfer (upcxx.Rank.Rget, Copy) whose retries ran out
//     returns such an error and has not moved its data, so a discard
//     hides a block that never arrived.
//
// A justified erasure is audited with //lint:ignore errflow <reason>,
// which the engine consumes (counting for the unusedignore audit) when
// it kills the corresponding source or assignment.
package errflow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"sympack/internal/lint/analysis"
	"sympack/internal/lint/callgraph"
	"sympack/internal/lint/taint"
)

// Name is the analyzer name //lint:ignore directives must use.
const Name = "errflow"

var Analyzer = &analysis.Analyzer{
	Name: Name,
	Doc: "detects fault-taxonomy errors (ErrTransient, ErrLostSignal, ...) losing " +
		"errors.Is compatibility through %v rewraps, errors.New re-creation, type " +
		"assertions, nil-swallowing, or discarding, across call and package boundaries",
	Run:       run,
	FactTypes: []analysis.Fact{(*taint.Fact[int])(nil)},
}

// sentinels are the taxonomy roots every degradation decision keys on.
var sentinels = map[string]bool{
	"ErrTransient":      true,
	"ErrLostSignal":     true,
	"ErrDeviceFailed":   true,
	"ErrStalled":        true,
	"ErrTransferFailed": true,
}

var errIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// swallowSite records an `if <ident> != nil` whose taint must be checked
// at the condition's program point during replay.
type swallowSite struct {
	ifStmt *ast.IfStmt
	errVar ast.Expr // the nil-compared error expression
	fn     *ast.FuncDecl
}

func run(pass *analysis.Pass) (interface{}, error) {
	consults := consultedParams(pass)
	swallows := indexSwallowSites(pass)
	// reported dedups swallow and discard findings: the same node can be
	// revisited when a loop header is shared between replayed blocks.
	reported := map[ast.Node]bool{}

	taint.Run(pass, taint.Spec{
		What: "taxonomy error",
		Fix:  "preserve errors.Is (wrap with %w)",
		SourceExpr: func(e ast.Expr) string {
			obj := sentinelObj(pass.TypesInfo, e)
			if obj == nil {
				return ""
			}
			return obj.Pkg().Name() + "." + obj.Name()
		},
		TransferCall: func(call *ast.CallExpr) ([][]ast.Expr, bool) {
			return transferCall(pass.TypesInfo, call)
		},
		Sinks: func(n ast.Node) []taint.SinkUse {
			switch n := n.(type) {
			case *ast.CallExpr:
				return callSinks(pass, n)
			case *ast.TypeAssertExpr:
				return assertSinks(pass, n)
			}
			return nil
		},
		Visit: func(n ast.Node, taintOf func(e ast.Expr) []string) {
			if call, how := discardedCall(pass.TypesInfo, n); call != nil {
				if src := sourceOf(taintOf(call)); src != "" && !reported[n] {
					reported[n] = true
					pass.Reportf(call.Pos(), "taxonomy error (%s) discarded by a %s: "+
						"check the error or propagate it", src, how)
				}
				return
			}
			cond, ok := n.(ast.Expr)
			if !ok {
				return
			}
			site, ok := swallows[cond]
			if !ok || reported[site.ifStmt] {
				return
			}
			src := sourceOf(taintOf(site.errVar))
			if src == "" {
				return
			}
			ret := swallowReturn(pass, consults, site)
			if ret == nil {
				return
			}
			reported[site.ifStmt] = true
			pass.Reportf(ret.Pos(),
				"taxonomy error (%s) swallowed: checked against nil then discarded without "+
					"an errors.Is/errors.As consult; handle the class or propagate the error", src)
		},
	}, func(fn *types.Func) []int { return consults[fn] })
	return nil, nil
}

// sentinelObj resolves e to a package-level taxonomy sentinel variable.
func sentinelObj(info *types.Info, e ast.Expr) *types.Var {
	var id *ast.Ident
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return nil
	}
	v, ok := info.Uses[id].(*types.Var)
	if !ok || v.Pkg() == nil || !sentinels[v.Name()] {
		return nil
	}
	// Package level: the variable's parent scope is the package scope.
	if v.Parent() != v.Pkg().Scope() {
		return nil
	}
	if !types.Implements(v.Type(), errIface) {
		return nil
	}
	return v
}

// sourceOf extracts the first source description from a label set.
func sourceOf(labels []string) string {
	for _, l := range labels {
		if desc, ok := strings.CutPrefix(l, "src:"); ok {
			return desc
		}
	}
	return ""
}

// transferCall models the stdlib error-plumbing calls the summaries
// cannot see into.
func transferCall(info *types.Info, call *ast.CallExpr) ([][]ast.Expr, bool) {
	fn, path := callgraph.Callee(info, call)
	if fn == nil {
		return nil, false
	}
	switch {
	case path == "fmt" && fn.Name() == "Errorf":
		verbs, ok := analysis.FormatVerbs(call)
		if !ok {
			// Dynamic format: be conservative, everything may wrap.
			return [][]ast.Expr{call.Args[1:]}, true
		}
		var wrapped []ast.Expr
		for _, v := range verbs {
			if v.Verb == 'w' && 1+v.Arg < len(call.Args) {
				wrapped = append(wrapped, call.Args[1+v.Arg])
			}
		}
		return [][]ast.Expr{wrapped}, true
	case path == "fmt" && (fn.Name() == "Sprintf" || fn.Name() == "Sprint" || fn.Name() == "Sprintln"):
		// Stringification keeps taxonomy *content* flowing (the dangerous
		// ingredient of errors.New re-creation) even though identity dies.
		return [][]ast.Expr{call.Args}, true
	case path == "errors" && fn.Name() == "Join":
		return [][]ast.Expr{call.Args}, true
	case path == "errors" && (fn.Name() == "New" || fn.Name() == "Is" || fn.Name() == "As" || fn.Name() == "Unwrap"):
		// New severs identity (its argument is judged as a sink);
		// Is/As consume without producing a tainted value; Unwrap of a
		// tainted error stays in the taxonomy.
		if fn.Name() == "Unwrap" {
			return [][]ast.Expr{call.Args}, true
		}
		return nil, true
	case fn.Name() == "Error" && isErrorMethod(fn):
		// err.Error(): the string still carries the taxonomy text.
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			return [][]ast.Expr{{sel.X}}, true
		}
	}
	return nil, false
}

// isErrorMethod reports whether fn is the error interface's Error method
// shape: a niladic method returning exactly one string.
func isErrorMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	if sig.Params().Len() != 0 || sig.Results().Len() != 1 {
		return false
	}
	b, ok := sig.Results().At(0).Type().Underlying().(*types.Basic)
	return ok && b.Kind() == types.String
}

// callSinks flags taxonomy-erasing call arguments.
func callSinks(pass *analysis.Pass, call *ast.CallExpr) []taint.SinkUse {
	fn, path := callgraph.Callee(pass.TypesInfo, call)
	if fn == nil {
		return nil
	}
	switch {
	case path == "fmt" && fn.Name() == "Errorf":
		verbs, ok := analysis.FormatVerbs(call)
		if !ok {
			return nil
		}
		var uses []taint.SinkUse
		for _, v := range verbs {
			if v.Verb == 'w' || v.Verb == '*' || 1+v.Arg >= len(call.Args) {
				continue
			}
			arg := call.Args[1+v.Arg]
			if tv, ok := pass.TypesInfo.Types[arg]; ok && isErrorType(tv.Type) {
				uses = append(uses, taint.SinkUse{
					Value: arg,
					Desc:  fmt.Sprintf("a %%%c rewrap (severs errors.Is; use %%w)", v.Verb),
				})
			}
		}
		return uses
	case path == "errors" && fn.Name() == "New" && len(call.Args) == 1:
		return []taint.SinkUse{{
			Value: call.Args[0],
			Desc:  "errors.New over taxonomy-derived text (severs errors.Is)",
		}}
	}
	return nil
}

func isErrorType(t types.Type) bool {
	if _, ok := t.Underlying().(*types.Interface); !ok {
		return false
	}
	return types.Implements(t, errIface)
}

// assertSinks flags type assertions and type-switch guards on errors.
func assertSinks(pass *analysis.Pass, n *ast.TypeAssertExpr) []taint.SinkUse {
	tv, ok := pass.TypesInfo.Types[n.X]
	if !ok || !isErrorType(tv.Type) {
		return nil
	}
	desc := "a type assertion (wrapping breaks it; use errors.As)"
	if n.Type == nil {
		desc = "a type switch (wrapping breaks it; use errors.As)"
	}
	return []taint.SinkUse{{Value: n.X, Desc: desc}}
}

// discardedCall returns the call of a statement that throws away every
// result of a call with an error result — a bare call, an assignment of
// all results to _, or a go or defer — and names the shape.
func discardedCall(info *types.Info, n ast.Node) (*ast.CallExpr, string) {
	var call *ast.CallExpr
	var how string
	switch n := n.(type) {
	case *ast.ExprStmt:
		call, _ = ast.Unparen(n.X).(*ast.CallExpr)
		how = "bare call"
	case *ast.AssignStmt:
		if len(n.Rhs) != 1 {
			return nil, ""
		}
		for _, lhs := range n.Lhs {
			if id, ok := lhs.(*ast.Ident); !ok || id.Name != "_" {
				return nil, ""
			}
		}
		call, _ = ast.Unparen(n.Rhs[0]).(*ast.CallExpr)
		how = "blank assignment"
	case *ast.GoStmt:
		call, how = n.Call, "go statement"
	case *ast.DeferStmt:
		call, how = n.Call, "defer statement"
	}
	if call == nil || !returnsError(info, call) {
		return nil, ""
	}
	return call, how
}

// returnsError reports whether one of call's results is an error.
func returnsError(info *types.Info, call *ast.CallExpr) bool {
	t := info.TypeOf(call)
	if tuple, ok := t.(*types.Tuple); ok {
		for i := 0; i < tuple.Len(); i++ {
			if isErrorType(tuple.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return t != nil && isErrorType(t)
}

// indexSwallowSites maps `if <expr> != nil` conditions over error values
// to their enclosing statement, for the Visit hook to interrogate at the
// condition's program point.
func indexSwallowSites(pass *analysis.Pass) map[ast.Expr]*swallowSite {
	sites := map[ast.Expr]*swallowSite{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				ifs, ok := n.(*ast.IfStmt)
				if !ok {
					return true
				}
				bin, ok := ast.Unparen(ifs.Cond).(*ast.BinaryExpr)
				if !ok || bin.Op != token.NEQ {
					return true
				}
				errSide, nilSide := bin.X, bin.Y
				if isNil(pass.TypesInfo, errSide) {
					errSide, nilSide = nilSide, errSide
				}
				if !isNil(pass.TypesInfo, nilSide) {
					return true
				}
				if tv, ok := pass.TypesInfo.Types[errSide]; !ok || !isErrorType(tv.Type) {
					return true
				}
				sites[ifs.Cond] = &swallowSite{ifStmt: ifs, errVar: errSide, fn: fd}
				return true
			})
		}
	}
	return sites
}

func isNil(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name != "nil" {
		return false
	}
	_, isNil := info.Uses[id].(*types.Nil)
	return isNil
}

// swallowReturn finds a `return ..., nil, ...` in the if body that drops
// the checked error (nil in the error result slot) while the whole
// statement never consults errors.Is/errors.As — directly or through a
// classifier helper. Nested function literals are their own scope and are
// skipped.
func swallowReturn(pass *analysis.Pass, consults map[*types.Func][]int, site *swallowSite) *ast.ReturnStmt {
	if consultsTaxonomy(pass, consults, site) {
		return nil
	}
	errPos := errorResultIndexes(site.fn)
	if len(errPos) == 0 {
		return nil
	}
	var found *ast.ReturnStmt
	ast.Inspect(site.ifStmt.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || found != nil {
			return true
		}
		for _, i := range errPos {
			if i < len(ret.Results) {
				if id, ok := ast.Unparen(ret.Results[i]).(*ast.Ident); ok && id.Name == "nil" {
					found = ret
					return false
				}
			}
		}
		return true
	})
	return found
}

// consultsTaxonomy reports whether the if statement (condition, body, or
// else chain) consults the taxonomy on the checked error: a direct
// errors.Is/errors.As call, or passing the error to a function whose
// consulted-parameter fact covers that argument position.
func consultsTaxonomy(pass *analysis.Pass, local map[*types.Func][]int, site *swallowSite) bool {
	var errObj types.Object
	if id, ok := ast.Unparen(site.errVar).(*ast.Ident); ok {
		errObj = pass.TypesInfo.Uses[id]
	}
	consults := false
	ast.Inspect(site.ifStmt, func(n ast.Node) bool {
		if consults {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if pkg, ok := n.X.(*ast.Ident); ok && pkg.Name == "errors" &&
				(n.Sel.Name == "Is" || n.Sel.Name == "As") {
				consults = true
				return false
			}
		case *ast.CallExpr:
			if errObj == nil {
				return true
			}
			callee, _ := callgraph.Callee(pass.TypesInfo, n)
			if callee == nil {
				return true
			}
			for _, idx := range consultIndexes(pass, local, callee) {
				if idx >= len(n.Args) {
					continue
				}
				if id, ok := ast.Unparen(n.Args[idx]).(*ast.Ident); ok && pass.TypesInfo.Uses[id] == errObj {
					consults = true
					return false
				}
			}
		}
		return true
	})
	return consults
}

// consultIndexes resolves a callee's consulted error parameters: the
// in-package map for local functions, the exported fact otherwise.
func consultIndexes(pass *analysis.Pass, local map[*types.Func][]int, fn *types.Func) []int {
	if fn.Pkg() == pass.Pkg {
		return local[fn]
	}
	var f taint.Fact[int]
	pass.ImportObjectFact(fn, &f)
	return f.X
}

// consultedParams maps each declared function to the sorted parameter
// indexes it checks with errors.Is or errors.As. Consults inside nested
// function literals are conditional on the closure running, so they do
// not count. The indexes travel to importers in the function's
// taint.Fact (X) and recognize the classifier-helper shape (`func
// retryable(err error) bool`): a branch that keys on the helper's verdict
// is not reported as a swallow even though the errors.Is lives one frame
// down.
func consultedParams(pass *analysis.Pass) map[*types.Func][]int {
	out := map[*types.Func][]int{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			paramIdx := map[types.Object]int{}
			sig := fn.Type().(*types.Signature)
			for i := 0; i < sig.Params().Len(); i++ {
				paramIdx[sig.Params().At(i)] = i
			}
			seen := map[int]bool{}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if _, ok := n.(*ast.FuncLit); ok {
					return false
				}
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				callee, path := callgraph.Callee(pass.TypesInfo, call)
				if path != "errors" ||
					(callee.Name() != "Is" && callee.Name() != "As") {
					return true
				}
				id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
				if !ok {
					return true
				}
				obj := pass.TypesInfo.Uses[id]
				if obj == nil {
					return true
				}
				if idx, ok := paramIdx[obj]; ok && !seen[idx] {
					seen[idx] = true
					out[fn] = append(out[fn], idx)
				}
				return true
			})
			sort.Ints(out[fn])
		}
	}
	return out
}

// errorResultIndexes lists the positions of error-typed results in fd's
// signature.
func errorResultIndexes(fd *ast.FuncDecl) []int {
	if fd.Type.Results == nil {
		return nil
	}
	var out []int
	i := 0
	for _, field := range fd.Type.Results.List {
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		isErr := false
		if id, ok := field.Type.(*ast.Ident); ok && id.Name == "error" {
			isErr = true
		}
		for j := 0; j < n; j++ {
			if isErr {
				out = append(out, i)
			}
			i++
		}
	}
	return out
}
