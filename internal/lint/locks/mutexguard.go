package locks

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"

	"sympack/internal/lint/analysis"
	"sympack/internal/lint/dataflow"
)

// MutexGuard enforces `// guarded by <recv>.<mu>` field annotations. The
// engine's scheduler state (dependency counters, ready queue, retry
// bookkeeping) is a classic fan-out hazard: it is mutated from the rank
// goroutine, its helper workers, and remote-signal callbacks, and the
// paper's bit-identical-factors claim (§3.2) only holds if every such
// mutation happens under the engine mutex. A struct field carrying a doc
// or trailing comment of the form
//
//	queue []task // guarded by e.mu
//
// declares that every access to the field must happen while the same
// instance's named mutex (here: the struct's own `mu` field) is held on
// every path, which the walk's must reading decides. Two escape valves
// keep it false-positive-poor:
//
//   - A function documented "callers hold <name>.<mu>" (doc comment or a
//     comment before the first statement) starts with that mutex held,
//     matching the repo's convention for internal helpers. A call to a
//     method with such a contract, made without the mutex held, is
//     itself reported: the other half of the convention.
//   - A variable bound to a fresh composite literal (e := &engine{...})
//     is unshared until published; its guarded fields may be initialized
//     without the lock, as constructors do.
//
// An annotation naming a mutex field the struct does not have is itself
// reported: a typo'd guard is a guard that never fires.
var MutexGuard = &analysis.Analyzer{
	Name: "mutexguard",
	Doc: "checks that fields annotated `guarded by <recv>.<mu>` are only " +
		"accessed while the instance's mutex is provably held (CFG-based " +
		"lockset must-analysis with callers-hold seeding, fresh-object " +
		"exemption, and call-graph lock summaries applied at call sites)",
	Run:       runMutexGuard,
	FactTypes: []analysis.Fact{(*summary)(nil)},
}

var guardRe = regexp.MustCompile(`(?i)guarded\s+by\s+(\w+)\.(\w+)`)

type guard struct {
	*walk
	guards map[*types.Var]string // annotated field -> mutex field name
	fresh  map[types.Object]bool // locals bound to fresh composite literals
}

func runMutexGuard(pass *analysis.Pass) (interface{}, error) {
	m := &guard{guards: map[*types.Var]string{}}
	m.walk = &walk{pass: pass, sums: summarize(pass), must: true, call: m.checkRequires, sel: m.checkAccess}
	m.collectGuards()
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				m.fresh = m.collectFresh(fd.Body)
				m.body(fd.Body, m.seed(fd, f))
			}
		}
	}
	return nil, nil
}

// collectGuards reads the annotations off struct fields, validating that
// the named mutex is a sibling field.
func (m *guard) collectGuards() {
	for _, f := range m.pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			names := map[string]bool{}
			for _, fld := range st.Fields.List {
				for _, nm := range fld.Names {
					names[nm.Name] = true
				}
			}
			for _, fld := range st.Fields.List {
				mu := guardAnnotation(fld)
				if mu == "" {
					continue
				}
				if !names[mu] {
					m.pass.Reportf(fld.Pos(),
						"guarded-by annotation names unknown mutex %q; the guard can never be checked", mu)
					continue
				}
				for _, nm := range fld.Names {
					if v, ok := m.pass.TypesInfo.Defs[nm].(*types.Var); ok && v != nil {
						m.guards[v] = mu
					}
				}
			}
			return true
		})
	}
}

func guardAnnotation(fld *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{fld.Doc, fld.Comment} {
		if cg == nil {
			continue
		}
		if m := guardRe.FindStringSubmatch(cg.Text()); m != nil {
			return m[2]
		}
	}
	return ""
}

// seed builds the entry lockset from "callers hold x.mu" claims in the
// function's doc comment or in comments before its first statement.
func (m *guard) seed(fd *ast.FuncDecl, file *ast.File) dataflow.Set {
	scope := map[string]types.Object{}
	for _, fl := range []*ast.FieldList{fd.Recv, fd.Type.Params} {
		if fl == nil {
			continue
		}
		for _, f := range fl.List {
			for _, nm := range f.Names {
				if obj := m.pass.TypesInfo.Defs[nm]; obj != nil {
					scope[nm.Name] = obj
				}
			}
		}
	}
	held := dataflow.Set{}
	seedFrom := func(text string) {
		for _, c := range holdRe.FindAllStringSubmatch(text, -1) {
			if obj, ok := scope[c[1]]; ok {
				held[objField(obj, c[2])] = true
			}
		}
	}
	if fd.Doc != nil {
		seedFrom(fd.Doc.Text())
	}
	limit := fd.Body.Rbrace
	if len(fd.Body.List) > 0 {
		limit = fd.Body.List[0].Pos()
	}
	for _, cg := range file.Comments {
		if cg.Pos() > fd.Body.Lbrace && cg.End() < limit {
			seedFrom(cg.Text())
		}
	}
	return held
}

// collectFresh returns the variables bound to fresh composite literals
// anywhere in the body: until published they are unshared and their
// guarded fields are free.
func (m *guard) collectFresh(body *ast.BlockStmt) map[types.Object]bool {
	fresh := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		s, ok := n.(*ast.AssignStmt)
		if !ok || s.Tok != token.DEFINE {
			return true
		}
		for i, lhs := range s.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || i >= len(s.Rhs) {
				continue
			}
			rhs := ast.Unparen(s.Rhs[i])
			if ue, ok := rhs.(*ast.UnaryExpr); ok && ue.Op == token.AND {
				rhs = ast.Unparen(ue.X)
			}
			if _, ok := rhs.(*ast.CompositeLit); !ok {
				continue
			}
			if obj := m.pass.TypesInfo.Defs[id]; obj != nil {
				fresh[obj] = true
			}
		}
		return true
	})
	return fresh
}

// base resolves the plain variable a selector is taken from, or nil.
func (m *guard) base(sel *ast.SelectorExpr) (*ast.Ident, types.Object) {
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return nil, nil
	}
	return id, m.pass.TypesInfo.Uses[id]
}

// checkRequires enforces the callee's callers-hold contract at the call
// site: calling a method documented "callers hold r.mu" without the
// base's mutex provably held is the other half of the bug checkAccess
// catches inside the callee's own package.
func (m *guard) checkRequires(call *ast.CallExpr, held dataflow.Set) {
	sel, s := m.callee(call)
	if s == nil {
		return
	}
	id, obj := m.base(sel)
	if obj == nil || m.fresh[obj] {
		return
	}
	for _, mu := range s.Requires {
		if !held[objField(obj, mu)] {
			m.pass.Reportf(call.Pos(),
				"%s.%s documents 'callers hold %s.%s' but the mutex is not held at this call — "+
					"lock it first, or propagate the callers-hold contract",
				id.Name, sel.Sel.Name, id.Name, mu)
		}
	}
}

func (m *guard) checkAccess(sel *ast.SelectorExpr, held dataflow.Set) {
	fieldVar, ok := m.pass.TypesInfo.Uses[sel.Sel].(*types.Var)
	if !ok {
		return
	}
	mu, ok := m.guards[fieldVar]
	if !ok {
		return
	}
	id, obj := m.base(sel) // a multi-step path names no lock instance
	if obj == nil || m.fresh[obj] || held[objField(obj, mu)] {
		return
	}
	m.pass.Reportf(sel.Pos(),
		"%s.%s is guarded by %s.%s but the mutex is not held here — lock it, "+
			"or document the invariant with a 'callers hold %s.%s' comment",
		id.Name, sel.Sel.Name, id.Name, mu, id.Name, mu)
}
