// Package ctxflow enforces cooperative-cancellation discipline on the
// request path. sympackd promises that a canceled or deadline-expired
// factorization request surfaces core.ErrCanceled instead of hanging
// (DESIGN.md §9); that only holds if every function between the HTTP
// handler and the blocking engine call threads the request's
// context.Context through. A single hop that drops the context — calling
// the ctx-less variant of a blocking API, or manufacturing a fresh
// context.Background() downstream of the request — silently detaches the
// whole subtree from cancellation.
//
// The analyzer runs over the request-path packages (internal/server,
// internal/core) and inspects every function that takes a
// context.Context parameter — having one IS the request-path marker:
//
//   - Materializing context.Background() or context.TODO() inside such a
//     function is reported: downstream of a request there is always a
//     better parent.
//   - Calling a function or method f when a sibling fCtx with a context
//     parameter exists (same package or same receiver type, sympack code
//     only) is reported: the blocking callee has a cancellable variant
//     and the caller has a context in hand.
//   - Every context argument passed to a callee must be request-derived
//     on every path: a forward must-dataflow over the control-flow graph
//     (internal/lint/cfg + internal/lint/dataflow) tracks which context
//     variables derive from the request context (the parameter itself,
//     context.With* chains rooted at it, req.Context()), with set
//     intersection at merges. An argument that is fresh on even one
//     incoming path is reported.
//
// Function literals are skipped entirely: a goroutine launched from a
// request may legitimately outlive it (detached audit work), and the
// enclosing function's derivation state does not transfer to a closure's
// execution time. The escape hatch for deliberate detachment is the
// audited //lint:ignore ctxflow directive, with the reason on record.
package ctxflow

import (
	"go/ast"
	"go/types"
	"strings"

	"sympack/internal/lint/analysis"
	"sympack/internal/lint/callgraph"
	"sympack/internal/lint/cfg"
	"sympack/internal/lint/dataflow"
)

// Name is the analyzer's registry name.
const Name = "ctxflow"

// requestPathPackages are the packages whose functions serve requests;
// the cancellation contract applies there.
var requestPathPackages = map[string]bool{
	"sympack/internal/server": true,
	"sympack/internal/core":   true,
}

var Analyzer = &analysis.Analyzer{
	Name: Name,
	Doc: "checks that request-path functions (internal/server, internal/core) " +
		"thread their context.Context into every blocking callee: no " +
		"context.Background()/TODO() downstream of a request, no call to a " +
		"ctx-less function that has a Ctx variant, and every context argument " +
		"request-derived on every path (CFG must-dataflow)",
	Run: run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !requestPathPackages[pass.Pkg.Path()] {
		return nil, nil
	}
	w := &walker{pass: pass}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			seed := ctxParams(pass, fd)
			if len(seed) == 0 {
				continue // no request context in hand: not on the request path
			}
			w.checkFunc(fd, seed)
		}
	}
	return nil, nil
}

type walker struct {
	pass *analysis.Pass
}

// ctxParams returns the context.Context parameters of a function.
func ctxParams(pass *analysis.Pass, fd *ast.FuncDecl) map[types.Object]bool {
	seed := map[types.Object]bool{}
	if fd.Type.Params == nil {
		return seed
	}
	for _, f := range fd.Type.Params.List {
		for _, nm := range f.Names {
			if obj := pass.TypesInfo.Defs[nm]; obj != nil && isContext(obj.Type()) {
				seed[obj] = true
			}
		}
	}
	return seed
}

func isContext(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil &&
		obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// checkFunc applies all three rules to one request-path function.
func (w *walker) checkFunc(fd *ast.FuncDecl, seed map[types.Object]bool) {
	g := cfg.New(fd.Body)
	step := func(n ast.Node, derived dataflow.Set) { w.applyNode(n, seed, derived) }
	res := dataflow.Solve(g, dataflow.SetLattice{Intersect: true}, dataflow.Forward, dataflow.Set{}, dataflow.Steps(step))
	dataflow.Replay(g, res, func(n ast.Node, derived dataflow.Set) {
		w.checkNode(n, seed, derived)
		step(n, derived)
	})
}

// applyNode is the transfer function: context-typed assignments gen
// (request-derived right-hand side) or kill (anything else) their
// left-hand variable.
func (w *walker) applyNode(n ast.Node, seed map[types.Object]bool, derived dataflow.Set) {
	as, ok := n.(*ast.AssignStmt)
	if !ok {
		if ds, ok := n.(*ast.DeclStmt); ok {
			if gd, ok := ds.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						w.applySpec(vs, seed, derived)
					}
				}
			}
		}
		return
	}
	// ctx, cancel := context.WithTimeout(parent, d): one call, two names.
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		ok := w.derivedExpr(as.Rhs[0], seed, derived)
		for _, lhs := range as.Lhs {
			w.setDerived(lhs, ok, derived)
		}
		return
	}
	for i, lhs := range as.Lhs {
		if i < len(as.Rhs) {
			w.setDerived(lhs, w.derivedExpr(as.Rhs[i], seed, derived), derived)
		}
	}
}

func (w *walker) applySpec(vs *ast.ValueSpec, seed map[types.Object]bool, derived dataflow.Set) {
	for i, nm := range vs.Names {
		obj := w.pass.TypesInfo.Defs[nm]
		if obj == nil || !isContext(obj.Type()) {
			continue
		}
		ok := false
		if i < len(vs.Values) {
			ok = w.derivedExpr(vs.Values[i], seed, derived)
		} else if len(vs.Values) == 1 {
			ok = w.derivedExpr(vs.Values[0], seed, derived)
		}
		if ok {
			derived[dataflow.Key(obj)] = true
		} else {
			delete(derived, dataflow.Key(obj))
		}
	}
}

func (w *walker) setDerived(lhs ast.Expr, ok bool, derived dataflow.Set) {
	id, isIdent := ast.Unparen(lhs).(*ast.Ident)
	if !isIdent {
		return
	}
	obj := w.pass.TypesInfo.Defs[id]
	if obj == nil {
		obj = w.pass.TypesInfo.Uses[id]
	}
	if obj == nil || !isContext(obj.Type()) {
		return
	}
	if ok {
		derived[dataflow.Key(obj)] = true
	} else {
		delete(derived, dataflow.Key(obj))
	}
}

// derivedExpr reports whether an expression evaluates to a
// request-derived context: the request context itself, a context.With*
// chain rooted at one, or an http request's Context().
func (w *walker) derivedExpr(e ast.Expr, seed map[types.Object]bool, derived dataflow.Set) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := w.pass.TypesInfo.Uses[e]
		return obj != nil && (seed[obj] || derived[dataflow.Key(obj)])
	case *ast.CallExpr:
		sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr)
		if !ok {
			return false
		}
		switch w.contextFunc(e) {
		case "":
			// req.Context(): the canonical request root.
			return sel.Sel.Name == "Context" && len(e.Args) == 0
		case "WithCancel", "WithTimeout", "WithDeadline", "WithValue":
			return len(e.Args) > 0 && w.derivedExpr(e.Args[0], seed, derived)
		}
		return false // Background, TODO: fresh by definition
	}
	return false
}

// contextFunc returns the name of the package context function a call
// makes, or "".
func (w *walker) contextFunc(call *ast.CallExpr) string {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if pkgID, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
			if pn, ok := w.pass.TypesInfo.Uses[pkgID].(*types.PkgName); ok && pn.Imported().Path() == "context" {
				return sel.Sel.Name
			}
		}
	}
	return ""
}

// checkNode applies the reporting rules to one CFG node with the derived
// set that holds on entry to it.
func (w *walker) checkNode(n ast.Node, seed map[types.Object]bool, derived dataflow.Set) {
	if n == nil {
		return
	}
	if r, ok := n.(*ast.RangeStmt); ok {
		n = r.X // the loop body has its own blocks
	}
	ast.Inspect(n, func(nn ast.Node) bool {
		switch nn := nn.(type) {
		case *ast.FuncLit:
			return false // closures detach; audited ignores cover intent
		case *ast.CallExpr:
			w.checkCall(nn, seed, derived)
		}
		return true
	})
}

func (w *walker) checkCall(call *ast.CallExpr, seed map[types.Object]bool, derived dataflow.Set) {
	// Rule 1: no fresh contexts downstream of a request.
	if f := w.contextFunc(call); f == "Background" || f == "TODO" {
		w.pass.Reportf(call.Pos(),
			"context.%s() materialized downstream of a request — a canceled "+
				"request can never reach this subtree; derive from the request context instead", f)
		return
	}

	// Rule 2: prefer the Ctx variant when one exists.
	w.checkCtxVariant(call)

	// Rule 3: context arguments must be request-derived on every path.
	for _, arg := range call.Args {
		tv, ok := w.pass.TypesInfo.Types[arg]
		if !ok || !isContext(tv.Type) {
			continue
		}
		switch a := ast.Unparen(arg).(type) {
		case *ast.Ident:
			obj := w.pass.TypesInfo.Uses[a]
			if obj == nil || !isContext(obj.Type()) {
				continue
			}
			if _, isVar := obj.(*types.Var); !isVar {
				continue // e.g. the nil ident
			}
			if seed[obj] || derived[dataflow.Key(obj)] {
				continue
			}
			w.pass.Reportf(a.Pos(),
				"context %s is not derived from the request context on every path "+
					"to this call — a canceled request cannot cancel the callee",
				a.Name)
		case *ast.CallExpr:
			// Direct context.With*(...) and req.Context() arguments are
			// judged by derivedExpr; Background()/TODO() were reported by
			// rule 1 already, and unknown producer calls stay silent
			// (conservative).
		}
	}
}

// checkCtxVariant reports a call to f when an fCtx sibling taking a
// context exists in the same package (or on the same receiver type).
func (w *walker) checkCtxVariant(call *ast.CallExpr) {
	fn, path := callgraph.Callee(w.pass.TypesInfo, call)
	if !strings.HasPrefix(path, "sympack/") {
		return
	}
	if strings.HasSuffix(fn.Name(), "Ctx") || signatureHasContext(fn) {
		return
	}
	sibling := fn.Name() + "Ctx"
	var alt *types.Func
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Name() == sibling {
					alt = m
					break
				}
			}
		}
	} else if obj := fn.Pkg().Scope().Lookup(sibling); obj != nil {
		alt, _ = obj.(*types.Func)
	}
	if alt == nil || !signatureHasContext(alt) {
		return
	}
	w.pass.Reportf(call.Pos(),
		"%s drops the request context but %s exists — call the Ctx variant "+
			"so cancellation reaches the blocking work", fn.Name(), sibling)
}

func signatureHasContext(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isContext(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}
