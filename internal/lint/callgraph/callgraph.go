// Package callgraph builds a type-driven call graph over one type-checked
// package and solves per-function summaries on it: the layer under the
// suite's interprocedural analyzers (taint summaries in nondetflow and
// errflow, channel-use summaries in goroutineleak, lock summaries in
// mutexguard and lockorder). It answers the question those analyzers
// share — "which function(s) can this call expression reach?" — with three
// resolution strategies, applied in order:
//
//  1. Static: the callee is a named function or a concrete method,
//     resolved directly through go/types (including qualified
//     identifiers, pkg.Fn). Callee is this step on its own, for the
//     analyzers that only ask which function a call names.
//  2. Function value: the callee is a local variable bound exactly once
//     to a statically known function ("f := helper; ...; f(x)"). A
//     variable reassigned, address-taken, or bound to anything but a
//     plain function reference stays unresolved.
//  3. Method set: the callee is an interface method; the candidates are
//     every named type declared in this package or in an imported
//     module-local package whose method set satisfies the interface.
//     The result is the (deterministically ordered) set of concrete
//     methods, which is sound for module-local dispatch because the
//     linters only reason about module-local invariants.
//
// Everything else — builtins, conversions, calls of function-typed fields
// or parameters, immediately invoked literals — resolves to no callees
// with KindUnknown, and callers fall back to whatever conservative
// treatment their analysis needs.
//
// The graph (Build) lists every declared function in source order. Solve
// is the suite's one summary fixpoint: it visits callees before callers,
// so a chain of helpers of any depth converges in one round, and only
// recursion takes more. Summaries keeps an analyzer's summaries, answers
// for a callee from the package's own or from the fact an imported
// package exported, and exports the package's own.
package callgraph

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"sympack/internal/lint/analysis"
)

// Kind classifies how a call site was resolved.
type Kind int

const (
	// KindUnknown: no callee could be determined (dynamic call through a
	// parameter, field, builtin, conversion, or immediately invoked
	// literal).
	KindUnknown Kind = iota
	// KindStatic: a single statically resolved function or concrete
	// method.
	KindStatic
	// KindFuncValue: a single function reached through a local variable
	// bound exactly once to a known function.
	KindFuncValue
	// KindInterface: an interface method call resolved to the concrete
	// methods of every module-local type implementing the interface.
	KindInterface
)

// A Node is one declared function with a body.
type Node struct {
	Func *types.Func
	Decl *ast.FuncDecl
}

// A Graph is the call graph of one package: every function declaration in
// file-then-position order, and the resolver that finds the calls between
// them.
type Graph struct {
	Nodes    []*Node
	Resolver *Resolver
}

// Build constructs the package's call graph.
func Build(pkg *types.Package, info *types.Info, files []*ast.File) *Graph {
	g := &Graph{Resolver: NewResolver(pkg, info, files)}
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, _ := info.Defs[fd.Name].(*types.Func); fn != nil {
				g.Nodes = append(g.Nodes, &Node{Func: fn, Decl: fd})
			}
		}
	}
	return g
}

// maxRounds bounds Solve. An acyclic call graph converges in its first
// round, and the second changes nothing; only recursion needs more, and
// there a summary can grow each time round the cycle (a taint Via chain
// does), so the bound is what ends it.
const maxRounds = 32

// Solve is the one per-function summary fixpoint of the suite: update
// recomputes node n's summary from its body and its callees' summaries and
// reports whether it changed. Each round visits callees before callers — a
// postorder of the package's call graph entered from its functions in
// source order, so the order is deterministic — and rounds repeat until
// none changes a summary.
func (g *Graph) Solve(update func(n *Node) bool) {
	order := g.postorder()
	for round := 0; round < maxRounds; round++ {
		changed := false
		for _, n := range order {
			if update(n) {
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// postorder lists the nodes callees first, by a depth-first walk of the
// calls each body makes (nested function literals included) to functions
// of the package.
func (g *Graph) postorder() []*Node {
	byFunc := make(map[*types.Func]*Node, len(g.Nodes))
	for _, n := range g.Nodes {
		byFunc[n.Func] = n
	}
	seen := make(map[*Node]bool, len(g.Nodes))
	order := make([]*Node, 0, len(g.Nodes))
	var visit func(n *Node)
	visit = func(n *Node) {
		seen[n] = true
		ast.Inspect(n.Decl.Body, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok {
				callees, _ := g.Resolver.Callees(call)
				for _, fn := range callees {
					if c := byFunc[fn]; c != nil && !seen[c] {
						visit(c)
					}
				}
			}
			return true
		})
		order = append(order, n)
	}
	for _, n := range g.Nodes {
		if !seen[n] {
			visit(n)
		}
	}
	return order
}

// Summaries holds one summary per function, of an analyzer's fact type
// F: Local for the package's own functions, which the analyzer fills
// through Solve, and for any other function the fact an earlier pass
// exported.
type Summaries[F analysis.Fact] struct {
	*Graph
	Local map[*types.Func]F
	pass  *analysis.Pass
	fresh func() F
}

// NewSummaries builds the package's call graph with an empty summary
// table of fact type *T.
func NewSummaries[T any, F interface {
	*T
	analysis.Fact
}](pass *analysis.Pass) *Summaries[F] {
	return &Summaries[F]{
		Graph: Build(pass.Pkg, pass.TypesInfo, pass.Files),
		Local: map[*types.Func]F{},
		pass:  pass,
		fresh: func() F { return new(T) },
	}
}

// Of returns fn's summary: the local one, or the imported fact.
func (s *Summaries[F]) Of(fn *types.Func) (F, bool) {
	if f, ok := s.Local[fn]; ok {
		return f, true
	}
	f := s.fresh()
	if s.pass.ImportObjectFact(fn, f) {
		return f, true
	}
	var none F
	return none, false
}

// Export publishes, for importing packages, the local summaries keep
// accepts.
func (s *Summaries[F]) Export(keep func(F) bool) {
	for _, n := range s.Nodes {
		if f, ok := s.Local[n.Func]; ok && keep(f) {
			s.pass.ExportObjectFact(n.Func, f)
		}
	}
}

// A Resolver resolves call expressions of one package to callee
// functions.
type Resolver struct {
	pkg  *types.Package
	info *types.Info

	// funcVals maps a local variable object to the single function it is
	// bound to, when that binding is unique and static.
	funcVals map[types.Object]*types.Func

	// implCandidates are the named types (from this package and imported
	// module-local packages) considered for interface method resolution,
	// in deterministic order.
	implCandidates []*types.Named

	// implCache memoizes interface-method resolution by interface method
	// object.
	implCache map[*types.Func][]*types.Func
}

// NewResolver indexes the package for call resolution.
func NewResolver(pkg *types.Package, info *types.Info, files []*ast.File) *Resolver {
	r := &Resolver{
		pkg:       pkg,
		info:      info,
		funcVals:  map[types.Object]*types.Func{},
		implCache: map[*types.Func][]*types.Func{},
	}
	r.indexFuncValues(files)
	r.indexImplCandidates()
	return r
}

// localPrefix returns the module prefix ("sympack") used to decide which
// imported packages take part in method-set resolution: the first path
// segment of the package under analysis.
func (r *Resolver) localPrefix() string {
	path := r.pkg.Path()
	if i := strings.IndexByte(path, '/'); i >= 0 {
		return path[:i]
	}
	return path
}

// isLocal reports whether an import path belongs to the same module as
// the package under analysis.
func (r *Resolver) isLocal(path string) bool {
	prefix := r.localPrefix()
	return path == prefix || strings.HasPrefix(path, prefix+"/")
}

// indexFuncValues records local variables bound exactly once to a static
// function reference. A second binding, or any binding to a non-function,
// poisons the variable.
func (r *Resolver) indexFuncValues(files []*ast.File) {
	poisoned := map[types.Object]bool{}
	bind := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := r.info.Defs[id]
		if obj == nil {
			obj = r.info.Uses[id]
		}
		v, ok := obj.(*types.Var)
		if !ok {
			return
		}
		fn := r.staticFuncRef(rhs)
		if fn == nil || poisoned[v] {
			poisoned[v] = true
			delete(r.funcVals, v)
			return
		}
		if prev, ok := r.funcVals[v]; ok && prev != fn {
			poisoned[v] = true
			delete(r.funcVals, v)
			return
		}
		r.funcVals[v] = fn
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i := range n.Lhs {
						bind(n.Lhs[i], n.Rhs[i])
					}
				}
			case *ast.ValueSpec:
				if len(n.Names) == len(n.Values) {
					for i := range n.Names {
						bind(n.Names[i], n.Values[i])
					}
				}
			case *ast.UnaryExpr:
				// Address-taken variables can be rebound through the
				// pointer; drop them.
				if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
					if v, ok := r.info.Uses[id].(*types.Var); ok {
						poisoned[v] = true
						delete(r.funcVals, v)
					}
				}
			}
			return true
		})
	}
}

// staticFuncRef resolves an expression to the function it references
// statically (an identifier or selector naming a func), or nil.
func (r *Resolver) staticFuncRef(e ast.Expr) *types.Func {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		fn, _ := r.info.Uses[e].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := r.info.Selections[e]; ok {
			// Method value or expression: only concrete methods resolve.
			if fn, ok := sel.Obj().(*types.Func); ok && !types.IsInterface(sel.Recv()) {
				return fn
			}
			return nil
		}
		// Qualified identifier pkg.Fn.
		fn, _ := r.info.Uses[e.Sel].(*types.Func)
		return fn
	}
	return nil
}

// indexImplCandidates gathers the named types eligible for interface
// resolution: every type name in this package's scope plus the scopes of
// directly imported module-local packages, in sorted (path, name) order.
func (r *Resolver) indexImplCandidates() {
	scopes := []*types.Package{r.pkg}
	imports := r.pkg.Imports()
	sort.Slice(imports, func(i, j int) bool { return imports[i].Path() < imports[j].Path() })
	for _, imp := range imports {
		if r.isLocal(imp.Path()) {
			scopes = append(scopes, imp)
		}
	}
	for _, p := range scopes {
		scope := p.Scope()
		for _, name := range scope.Names() { // Names is sorted
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok {
				r.implCandidates = append(r.implCandidates, named)
			}
		}
	}
}

// Callee returns the function a call names statically — a package-level
// function, a qualified pkg.Fn, or a concrete or interface method — and
// the path of its package ("" for a universe method such as error.Error).
// A call through a variable or field, a builtin or a conversion names no
// function and yields nil.
func Callee(info *types.Info, call *ast.CallExpr) (*types.Func, string) {
	var fn *types.Func
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ = info.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		fn, _ = info.Uses[fun.Sel].(*types.Func)
	}
	if fn == nil || fn.Pkg() == nil {
		return fn, ""
	}
	return fn, fn.Pkg().Path()
}

// Callees resolves a call expression. For KindStatic and KindFuncValue
// the slice has exactly one element; for KindInterface zero or more, in
// deterministic order; for KindUnknown it is nil.
func (r *Resolver) Callees(call *ast.CallExpr) ([]*types.Func, Kind) {
	fun := ast.Unparen(call.Fun)

	// Conversions and builtins never resolve.
	if tv, ok := r.info.Types[fun]; ok && (tv.IsType() || tv.IsBuiltin()) {
		return nil, KindUnknown
	}
	if fn, _ := Callee(r.info, call); fn != nil {
		if sel, ok := fun.(*ast.SelectorExpr); ok {
			if s, ok := r.info.Selections[sel]; ok && types.IsInterface(s.Recv()) {
				return r.interfaceImpls(fn, s.Recv()), KindInterface
			}
		}
		return []*types.Func{fn}, KindStatic
	}
	if id, ok := fun.(*ast.Ident); ok {
		if v, ok := r.info.Uses[id].(*types.Var); ok {
			if fn, ok := r.funcVals[v]; ok {
				return []*types.Func{fn}, KindFuncValue
			}
		}
	}
	return nil, KindUnknown
}

// interfaceImpls resolves an interface method to the corresponding
// concrete methods of every candidate type implementing the interface.
func (r *Resolver) interfaceImpls(method *types.Func, recv types.Type) []*types.Func {
	if impls, ok := r.implCache[method]; ok {
		return impls
	}
	iface, _ := recv.Underlying().(*types.Interface)
	var impls []*types.Func
	if iface != nil && !iface.Empty() {
		seen := map[*types.Func]bool{}
		for _, named := range r.implCandidates {
			if types.IsInterface(named.Underlying()) {
				continue
			}
			var impl types.Type = named
			if !types.Implements(impl, iface) {
				impl = types.NewPointer(named)
				if !types.Implements(impl, iface) {
					continue
				}
			}
			obj, _, _ := types.LookupFieldOrMethod(impl, true, method.Pkg(), method.Name())
			if fn, ok := obj.(*types.Func); ok && !seen[fn] {
				seen[fn] = true
				impls = append(impls, fn)
			}
		}
		sort.Slice(impls, func(i, j int) bool { return funcID(impls[i]) < funcID(impls[j]) })
	}
	r.implCache[method] = impls
	return impls
}

// funcID renders a stable, human-readable identity for a function:
// "path.Fn" or "path.(Recv).Fn".
func funcID(fn *types.Func) string {
	var sb strings.Builder
	if p := fn.Pkg(); p != nil {
		sb.WriteString(p.Path())
		sb.WriteString(".")
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			sb.WriteString("(")
			sb.WriteString(named.Obj().Name())
			sb.WriteString(").")
		}
	}
	sb.WriteString(fn.Name())
	return sb.String()
}

// DisplayName renders a function for diagnostics: "pkg.Fn" or
// "(*Recv).Fn", using package names rather than full paths.
func DisplayName(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		star := ""
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
			star = "*"
		}
		if named, ok := t.(*types.Named); ok {
			return "(" + star + named.Obj().Name() + ")." + fn.Name()
		}
	}
	if p := fn.Pkg(); p != nil {
		return p.Name() + "." + fn.Name()
	}
	return fn.Name()
}
