// Package futureerr flags upcxx future chains whose completion state can
// never be observed. Since the fault-injection work (PR 1, DESIGN.md §8),
// every communication future carries the completion state of its
// operation: a transfer whose retry budget ran out returns a Future with
// Err() wrapping faults.ErrTransient, and the paper's §3.4 signal/poll
// protocol is only resilient because consumers observe that state and
// re-request. Dropping it resurrects the lost-completion bugs the
// fan-out/fan-both literature warns about (Jacquelin et al.,
// arXiv:1608.00044).
//
// The analyzer reports two shapes:
//
//   - Discarded futures (the original, syntactic check): a future-typed
//     expression used as a bare statement, assigned to the blank
//     identifier, or launched via go/defer.
//
//     r.Rget(src, dst)          // Future discarded
//     go r.Copy(src, dst)       // Future discarded by go
//     _ = r.Copy(src, dst)      // explicitly discarded
//
//   - Bound-but-unconsulted futures (flow-sensitive): a future bound to a
//     local variable whose Err/OK result is never consulted on any path —
//     only Wait()ed, only rebound, or only passed to a function known to
//     ignore it. Binding used to satisfy the check on trust; now the uses
//     are actually traced.
//
//     f := r.Rget(src, dst)
//     _ = f.Wait()              // duration read, error dropped: reported
//
//   - Futures consulted on some but not all paths (CFG-based): when the
//     consulting uses exist but a path from the binding to return avoids
//     every one of them, the error is dropped exactly on that path. The
//     check runs a backward must-dataflow over the function's control-flow
//     graph (internal/lint/cfg + internal/lint/dataflow): "consulted" must
//     hold at the binding point under intersection join, i.e. on every
//     path to return. Panic paths are excused, and uses inside function
//     literals or deferred calls fall back to the any-use rule — closure
//     execution timing is outside the graph.
//
//     f := r.Rget(src, dst)
//     if cond {
//     return f.Err()        // the !cond path drops the error: reported
//     }
//
// Cross-package wrappers are chased through Facts: analyzing a package
// exports, for every function with future-typed parameters, which of
// those parameters the function (transitively) consults, plus a package
// "analyzed" marker. At a call site the analyzer then knows three states:
// the callee consults the future (silent), the callee was analyzed and
// provably ignores it (reported), or the callee is outside the analyzed
// world — stdlib, unanalyzed subset runs — where it stays conservative
// and silent. Escapes (returns, stores into fields/containers, channel
// sends, address-taking, aliasing) count as consultation: responsibility
// moved somewhere this function cannot see.
package futureerr

import (
	"go/ast"
	"go/types"
	"sort"

	"sympack/internal/lint/analysis"
	"sympack/internal/lint/cfg"
	"sympack/internal/lint/dataflow"
)

// futurePath/futureName identify the runtime's error-carrying future type.
const (
	futurePath = "sympack/internal/upcxx"
	futureName = "Future"
)

// consumesFuture is the exported object fact: the indices of a function's
// future-typed parameters whose Err/OK state the function (transitively)
// consults.
type consumesFuture struct{ Params []int }

func (*consumesFuture) AFact() {}

// analyzed marks a package this analyzer has processed, distinguishing
// "callee provably ignores the future" from "callee outside the analyzed
// world" at import time.
type analyzed struct{}

func (*analyzed) AFact() {}

var Analyzer = &analysis.Analyzer{
	Name: "futureerr",
	Doc: "flags upcxx.Future results that are discarded or bound without " +
		"their Err/OK ever being consulted, which would silently drop a " +
		"transient-fault error from the signal/poll protocol",
	Run:       run,
	FactTypes: []analysis.Fact{(*consumesFuture)(nil), (*analyzed)(nil)},
}

func run(pass *analysis.Pass) (interface{}, error) {
	pass.ExportPackageFact(&analyzed{})

	fns := collectFuncs(pass)
	consumes := computeConsumption(pass, fns)
	exportFacts(pass, consumes)
	reportDiscards(pass)
	reportUnconsulted(pass, fns, consumes)
	return nil, nil
}

// funcInfo is one function body under analysis, with a child→parent node
// map so a variable use can be classified by its syntactic context.
type funcInfo struct {
	decl    *ast.FuncDecl
	obj     *types.Func
	parents map[ast.Node]ast.Node
	graph   *cfg.Graph // built lazily for the all-paths check
}

// cfgOf returns the function's control-flow graph, building it on first
// use.
func (fi *funcInfo) cfgOf() *cfg.Graph {
	if fi.graph == nil {
		fi.graph = cfg.New(fi.decl.Body)
	}
	return fi.graph
}

// enclosedBy reports whether n sits inside a node of the given kinds
// (function literal, defer) within fi's body.
func (fi *funcInfo) enclosedBy(n ast.Node, funcLit, deferStmt bool) bool {
	for p := fi.parents[n]; p != nil; p = fi.parents[p] {
		switch p.(type) {
		case *ast.FuncLit:
			if funcLit {
				return true
			}
		case *ast.DeferStmt:
			if deferStmt {
				return true
			}
		}
	}
	return false
}

func collectFuncs(pass *analysis.Pass) []*funcInfo {
	var fns []*funcInfo
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			fi := &funcInfo{decl: fd, obj: obj, parents: map[ast.Node]ast.Node{}}
			var stack []ast.Node
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return true
				}
				if len(stack) > 0 {
					fi.parents[n] = stack[len(stack)-1]
				}
				stack = append(stack, n)
				return true
			})
			fns = append(fns, fi)
		}
	}
	return fns
}

// computeConsumption decides, for every function with future-typed
// parameters, which of them the body consults. Intra-package transitive
// consumption (A passes its future to B, B checks it) needs a fixpoint:
// iterate until no call-site reclassification adds a parameter.
func computeConsumption(pass *analysis.Pass, fns []*funcInfo) map[*types.Func]map[int]bool {
	consumes := map[*types.Func]map[int]bool{}
	type param struct {
		fi  *funcInfo
		obj *types.Var
		idx int
	}
	var params []param
	for _, fi := range fns {
		if fi.obj == nil {
			continue
		}
		sig := fi.obj.Type().(*types.Signature)
		for i := 0; i < sig.Params().Len(); i++ {
			if p := sig.Params().At(i); isFuture(p.Type()) {
				params = append(params, param{fi, p, i})
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, p := range params {
			if consumes[p.fi.obj][p.idx] {
				continue
			}
			if consultsObject(pass, p.fi, p.obj, consumes) {
				if consumes[p.fi.obj] == nil {
					consumes[p.fi.obj] = map[int]bool{}
				}
				consumes[p.fi.obj][p.idx] = true
				changed = true
			}
		}
	}
	return consumes
}

func exportFacts(pass *analysis.Pass, consumes map[*types.Func]map[int]bool) {
	for fn, set := range consumes {
		if len(set) == 0 {
			continue
		}
		idxs := make([]int, 0, len(set))
		for i := range set {
			idxs = append(idxs, i)
		}
		sort.Ints(idxs)
		pass.ExportObjectFact(fn, &consumesFuture{Params: idxs})
	}
}

// reportDiscards is the original syntactic check: future-typed results
// used as bare statements, blank-assigned, or launched via go/defer.
func reportDiscards(pass *analysis.Pass) {
	pass.Preorder(func(n ast.Node) {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok && returnsFuture(pass, call) {
				pass.Reportf(n.Pos(),
					"result of %s is discarded; a failed future's error would be dropped — "+
						"bind it and check Err/OK (or propagate it)", callName(call))
			}
		case *ast.GoStmt:
			if returnsFuture(pass, n.Call) {
				pass.Reportf(n.Pos(),
					"go statement discards the %s future; its error can never be observed",
					callName(n.Call))
			}
		case *ast.DeferStmt:
			if returnsFuture(pass, n.Call) {
				pass.Reportf(n.Pos(),
					"defer discards the %s future; its error can never be observed",
					callName(n.Call))
			}
		case *ast.AssignStmt:
			// _ = expr discarding a future is as lossy as a bare call.
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name != "_" || i >= len(n.Rhs) {
					continue
				}
				if len(n.Lhs) != len(n.Rhs) {
					continue // multi-value unpacking; future-typed results handled above
				}
				if tv, ok := pass.TypesInfo.Types[n.Rhs[i]]; ok && isFuture(tv.Type) {
					pass.Reportf(lhs.Pos(),
						"upcxx.Future assigned to the blank identifier; its error is dropped — "+
							"bind it and check Err/OK")
				}
			}
		}
	})
}

// reportUnconsulted flags local variables bound to futures whose Err/OK
// is never consulted anywhere in the enclosing function.
func reportUnconsulted(pass *analysis.Pass, fns []*funcInfo, consumes map[*types.Func]map[int]bool) {
	for _, fi := range fns {
		// Bindings: idents defined by := / var inside the body. Params and
		// named results never appear as such definitions; a wrapper that
		// ignores its future parameter is handled at its call sites via
		// the absent consumption fact, not here.
		type binding struct {
			id  *ast.Ident
			obj *types.Var
		}
		var bindings []binding
		ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
			var idents []*ast.Ident
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						idents = append(idents, id)
					}
				}
			case *ast.ValueSpec:
				idents = n.Names
			default:
				return true
			}
			for _, id := range idents {
				if obj, ok := pass.TypesInfo.Defs[id].(*types.Var); ok && obj != nil && isFuture(obj.Type()) {
					bindings = append(bindings, binding{id, obj})
				}
			}
			return true
		})
		for _, b := range bindings {
			uses := consultingUses(pass, fi, b.obj, consumes)
			if len(uses) == 0 {
				pass.Reportf(b.id.Pos(),
					"future bound to %s but its Err/OK result is never consulted — "+
						"check it, return it, or pass it to a consuming function", b.obj.Name())
				continue
			}
			// All-paths check. Bindings inside function literals live in a
			// different graph, and uses inside literals or defers execute
			// at times the graph does not model: both fall back to the
			// any-use rule that just passed.
			if fi.enclosedBy(b.id, true, false) {
				continue
			}
			deferredUse := false
			for _, u := range uses {
				if fi.enclosedBy(u, true, true) {
					deferredUse = true
					break
				}
			}
			if deferredUse {
				continue
			}
			if !consultedOnAllPaths(fi, b.id, uses) {
				pass.Reportf(b.id.Pos(),
					"future bound to %s but its Err/OK result is not consulted on every "+
						"path to return — a path that skips the check drops a transient-fault error",
					b.obj.Name())
			}
		}
	}
}

// consultedOnAllPaths runs the backward must-dataflow: "consulted" must
// hold at the binding's program point on every path to the function exit.
// Panic-terminated paths are excused.
func consultedOnAllPaths(fi *funcInfo, bindID *ast.Ident, uses []*ast.Ident) bool {
	g := fi.cfgOf()

	// Locate the binding's block and node. The innermost (last-matching)
	// containing node wins, so a binding inside a range header maps to the
	// header block, not the loop's span.
	var bindBlock *cfg.Block
	bindIdx := -1
	nodeContains := func(n ast.Node, id *ast.Ident) bool {
		return n.Pos() <= id.Pos() && id.Pos() < n.End()
	}
	for _, blk := range g.Reachable() {
		for i, n := range blk.Nodes {
			if nodeContains(n, bindID) {
				bindBlock, bindIdx = blk, i
			}
		}
	}
	if bindBlock == nil {
		return true // dead code: no path to return exists, nothing to drop
	}

	// A consulting use later in the binding's own block settles it.
	for _, u := range uses {
		for i := bindIdx + 1; i < len(bindBlock.Nodes); i++ {
			if nodeContains(bindBlock.Nodes[i], u) {
				return true
			}
		}
	}

	// Which blocks consult? (Uses inside funclits/defers were already
	// filtered out by the caller's fallback.)
	consults := map[*cfg.Block]bool{}
	for _, blk := range g.Blocks {
		for _, n := range blk.Nodes {
			for _, u := range uses {
				if nodeContains(n, u) {
					consults[blk] = true
				}
			}
		}
	}

	res := dataflow.Solve(g, dataflow.SetLattice{Intersect: true}, dataflow.Backward, dataflow.Set{},
		func(blk *cfg.Block, in dataflow.Set) dataflow.Set {
			if blk.PanicExit || consults[blk] {
				in["consulted"] = true
			}
			return in
		})
	exitState, ok := res.In[bindBlock]
	if !ok {
		return true // block cannot reach the exit (e.g. infinite loop)
	}
	return exitState["consulted"]
}

// consultingUses returns every use of obj inside fi's body that consults
// the future's completion state (or escapes it).
func consultingUses(pass *analysis.Pass, fi *funcInfo, obj *types.Var, consumes map[*types.Func]map[int]bool) []*ast.Ident {
	var uses []*ast.Ident
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || pass.TypesInfo.Uses[id] != obj {
			return true
		}
		if consultingUse(pass, fi, id, consumes) {
			uses = append(uses, id)
		}
		return true
	})
	return uses
}

// consultsObject reports whether any use of obj inside fi's body consults
// the future's completion state (or escapes it beyond this function's
// sight, which counts as handing responsibility on).
func consultsObject(pass *analysis.Pass, fi *funcInfo, obj *types.Var, consumes map[*types.Func]map[int]bool) bool {
	found := false
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok || pass.TypesInfo.Uses[id] != obj {
			return true
		}
		if consultingUse(pass, fi, id, consumes) {
			found = true
		}
		return true
	})
	return found
}

// futureMethodsSilent are Future methods whose call observes nothing about
// the completion state: Wait/Seconds read the modeled duration, Then's
// chained result is tracked on its own.
var futureMethodsSilent = map[string]bool{"Wait": true, "Seconds": true, "Then": true}

// consultingUse classifies one use of a future-typed variable by its
// immediate syntactic context. Unknown contexts count as consulting: the
// check must be false-positive-poor, so only provably-blind uses stay
// non-consulting.
func consultingUse(pass *analysis.Pass, fi *funcInfo, id *ast.Ident, consumes map[*types.Func]map[int]bool) bool {
	parent := fi.parents[id]
	for {
		p, ok := parent.(*ast.ParenExpr)
		if !ok {
			break
		}
		parent = fi.parents[p]
	}
	switch p := parent.(type) {
	case *ast.SelectorExpr:
		if p.X != id {
			return true // id is the Sel of an outer selector; not a future use
		}
		// Err/OK consult; Wait/Seconds/Then provably do not.
		return !futureMethodsSilent[p.Sel.Name]
	case *ast.AssignStmt:
		for _, lhs := range p.Lhs {
			if lhs == id {
				// A write to the variable observes nothing.
				return false
			}
		}
		// RHS use: aliased into another variable or a field; the alias
		// may be consulted — stay conservative.
		return true
	case *ast.CallExpr:
		if p.Fun == id {
			return true // not possible for a Future; conservative anyway
		}
		return callConsumesArg(pass, p, id, consumes)
	default:
		// Returns, composite literals, channel sends, address-taking,
		// index stores, comparisons: escaped or observed.
		return true
	}
}

// callConsumesArg decides whether passing the future as an argument hands
// its error to somebody who looks at it.
func callConsumesArg(pass *analysis.Pass, call *ast.CallExpr, id *ast.Ident, consumes map[*types.Func]map[int]bool) bool {
	argIdx := -1
	for i, a := range call.Args {
		if a == id {
			argIdx = i
			break
		}
	}
	if argIdx < 0 {
		return true // nested deeper inside an argument expression
	}
	callee := calleeFunc(pass, call)
	if callee == nil || callee.Pkg() == nil {
		return true // func value or builtin: unknown, conservative
	}
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return true
	}
	paramIdx := argIdx
	if sig.Variadic() && paramIdx >= sig.Params().Len()-1 {
		paramIdx = sig.Params().Len() - 1
	}
	if callee.Pkg() == pass.Pkg {
		// Same package: the fixpoint table is authoritative for every
		// function we saw a body for; bodiless declarations stay unknown.
		if set, ok := consumes[callee]; ok {
			return set[paramIdx]
		}
		if hasLocalBody(pass, callee) {
			return false
		}
		return true
	}
	// Cross-package: authoritative only if the callee's package was
	// analyzed (its facts are in the store); otherwise conservative.
	if !pass.ImportPackageFact(callee.Pkg(), &analyzed{}) {
		return true
	}
	var cf consumesFuture
	if !pass.ImportObjectFact(callee, &cf) {
		return false // analyzed and exported no consumption: provably blind
	}
	for _, i := range cf.Params {
		if i == paramIdx {
			return true
		}
	}
	return false
}

// hasLocalBody reports whether the package declares a body for fn.
func hasLocalBody(pass *analysis.Pass, fn *types.Func) bool {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func); obj == fn {
					return true
				}
			}
		}
	}
	return false
}

// calleeFunc resolves a call's static callee, if any.
func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pass.TypesInfo.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

func returnsFuture(pass *analysis.Pass, call *ast.CallExpr) bool {
	tv, ok := pass.TypesInfo.Types[call]
	if !ok {
		return false
	}
	if tuple, ok := tv.Type.(*types.Tuple); ok {
		for i := 0; i < tuple.Len(); i++ {
			if isFuture(tuple.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return isFuture(tv.Type)
}

func isFuture(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil &&
		obj.Pkg().Path() == futurePath && obj.Name() == futureName
}

// callName renders the callee for diagnostics (r.Rget, f.Then, ...).
func callName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			return id.Name + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	case *ast.Ident:
		return fun.Name
	}
	return "call"
}
