// Package mutexguard enforces `// guarded by <recv>.<mu>` field
// annotations with a flow-sensitive lockset analysis. The engine's
// scheduler state (dependency counters, ready queue, retry bookkeeping)
// is a classic fan-out hazard: it is mutated from the rank goroutine, its
// helper workers, and remote-signal callbacks, and the paper's
// bit-identical-factors claim (§3.2) only holds if every such mutation
// happens under the engine mutex. PR 2 established the discipline in
// prose; this analyzer makes the prose checkable.
//
// A struct field carrying a doc or trailing comment of the form
//
//	queue []task // guarded by e.mu
//
// declares that every access to the field must happen while the same
// instance's named mutex (here: the struct's own `mu` field) is held.
// The analysis runs a forward must-dataflow over the function's control-
// flow graph (internal/lint/cfg + internal/lint/dataflow): the state is
// the set of (base variable, mutex field) pairs provably held, the
// transfer function applies base.mu.Lock()/Unlock() calls, and the join
// at merge points is set intersection — a lock is held after a merge only
// if it is held on *every* incoming path. That fixes both documented
// unsoundness classes of the v2 source-order walk: an unlock on one arm
// of a branch no longer leaves the fallthrough path marked held (false
// negative), and a lock acquired on all arms is now known held after the
// join (false positive). Three escape valves keep it false-positive-poor:
//
//   - A function documented "callers hold <name>.<mu>" (doc comment or a
//     comment before the first statement) starts with that pair seeded,
//     matching the repo's existing convention for internal helpers.
//   - A variable bound to a fresh composite literal (e := &engine{...})
//     is unshared until published; its guarded fields may be initialized
//     without the lock, as constructors do.
//   - defer base.mu.Unlock() does not release: the pair stays held for
//     the remainder of the body, which is exactly the deferred-unlock
//     idiom's semantics.
//
// Function literals are analyzed as their own graphs with an empty entry
// lockset (a closure may run long after the enclosing critical section
// ends — precisely the worker goroutine bug this exists to catch), except
// a deferred literal, which runs at return and inherits the lockset at
// the defer point.
//
// An annotation naming a mutex field the struct does not have is itself
// reported: a typo'd guard is a guard that never fires.
//
// Callee handling rides the internal/lint/callgraph summaries: every
// method gets a lockFact describing what it does to its receiver's sync
// mutexes — Requires (a documented callers-hold contract), Acquires (it
// locks and leaves the mutex held, the lockAndX idiom), and Releases (it
// unlocks a mutex it did not take). Facts are exported for cross-package
// callers. At a call site `e.helper()`, Acquires/Releases update the
// lockset exactly like an inline Lock/Unlock, and a call to a Requires
// method while the mutex is not provably held is itself reported — the
// half of the callers-hold convention that used to be unchecked.
package mutexguard

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"

	"sympack/internal/lint/analysis"
	"sympack/internal/lint/callgraph"
	"sympack/internal/lint/cfg"
	"sympack/internal/lint/dataflow"
)

// Name is the analyzer's registry name.
const Name = "mutexguard"

var Analyzer = &analysis.Analyzer{
	Name: Name,
	Doc: "checks that fields annotated `guarded by <recv>.<mu>` are only " +
		"accessed while the instance's mutex is provably held (CFG-based " +
		"lockset must-analysis with callers-hold seeding, fresh-object " +
		"exemption, and call-graph lock summaries applied at call sites)",
	Run:       run,
	FactTypes: []analysis.Fact{(*lockFact)(nil)},
}

// lockFact summarizes a method's net effect on its receiver's mutexes,
// by mutex field name.
type lockFact struct {
	Requires []string // documented callers-hold contract
	Acquires []string // locked on behalf of the caller, still held at return
	Releases []string // unlocked on behalf of the caller
}

func (*lockFact) AFact() {}

func (f *lockFact) String() string { return "locks" }

var (
	guardRe = regexp.MustCompile(`(?i)guarded\s+by\s+(\w+)\.(\w+)`)
	holdRe  = regexp.MustCompile(`(?i)callers?\s+holds?\s+(\w+)\.(\w+)`)
)

// lockKey is one provably-held mutex: the base variable it is reached
// through and the mutex field's name. Keying on the variable's object
// (not its name) keeps aliases distinct.
type lockKey struct {
	obj   types.Object
	field string
}

type lockset map[lockKey]bool

func (ls lockset) clone() lockset {
	out := make(lockset, len(ls))
	for k := range ls {
		out[k] = true
	}
	return out
}

// lockLattice is the must-analysis lattice over locksets: the join at a
// control-flow merge keeps only locks held on every incoming path.
type lockLattice struct{}

func (lockLattice) Join(a, b lockset) lockset {
	out := lockset{}
	for k := range a {
		if b[k] {
			out[k] = true
		}
	}
	return out
}

func (lockLattice) Equal(a, b lockset) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func (lockLattice) Clone(a lockset) lockset { return a.clone() }

func run(pass *analysis.Pass) (interface{}, error) {
	w := &walker{
		pass:   pass,
		graph:  callgraph.Build(pass.Pkg, pass.TypesInfo, pass.Files),
		guards: map[*types.Var]string{},
		fresh:  map[types.Object]bool{},
		facts:  map[*types.Func]*lockFact{},
	}
	w.collectGuards()
	w.collectLockFacts()
	for fn, f := range w.facts {
		if len(f.Requires)+len(f.Acquires)+len(f.Releases) > 0 {
			pass.ExportObjectFact(fn, f)
		}
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			w.fresh = map[types.Object]bool{}
			w.collectFresh(fd.Body)
			w.analyzeBody(fd.Body, w.seed(fd, f))
		}
	}
	return nil, nil
}

type walker struct {
	pass   *analysis.Pass
	graph  *callgraph.Graph
	guards map[*types.Var]string // annotated field -> mutex field name
	fresh  map[types.Object]bool // locals bound to fresh composite literals
	facts  map[*types.Func]*lockFact
}

// collectLockFacts computes the per-method summaries: Requires from
// callers-hold docs, Acquires/Releases from the syntactic Lock/Unlock
// balance on receiver mutexes. Only clear-cut shapes summarize — a
// method with mixed lock/unlock traffic on the same mutex has no net
// effect a caller could rely on.
func (w *walker) collectLockFacts() {
	for _, node := range w.graph.Nodes {
		fd := node.Decl
		if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
			continue
		}
		recvName := fd.Recv.List[0].Names[0].Name
		recvObj := w.pass.TypesInfo.Defs[fd.Recv.List[0].Names[0]]
		if recvObj == nil {
			continue
		}
		f := &lockFact{}
		if fd.Doc != nil {
			for _, m := range holdRe.FindAllStringSubmatch(fd.Doc.Text(), -1) {
				if m[1] == recvName {
					f.Requires = append(f.Requires, m[2])
				}
			}
		}
		if fd.Body != nil {
			type balance struct{ lock, unlock, deferUnlock int }
			counts := map[string]*balance{}
			tally := func(call *ast.CallExpr, deferred bool) {
				k, locks, ok := w.lockOp(call)
				if !ok || k.obj != recvObj {
					return
				}
				b := counts[k.field]
				if b == nil {
					b = &balance{}
					counts[k.field] = b
				}
				switch {
				case locks:
					b.lock++
				case deferred:
					b.deferUnlock++
				default:
					b.unlock++
				}
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncLit:
					return false // its lock traffic is not the method's
				case *ast.ExprStmt:
					if call, ok := n.X.(*ast.CallExpr); ok {
						tally(call, false)
					}
				case *ast.DeferStmt:
					tally(n.Call, true)
				}
				return true
			})
			var fields []string
			for mu := range counts {
				fields = append(fields, mu)
			}
			sort.Strings(fields)
			for _, mu := range fields {
				b := counts[mu]
				switch {
				case b.lock > 0 && b.unlock == 0 && b.deferUnlock == 0:
					f.Acquires = append(f.Acquires, mu)
				case b.unlock > 0 && b.lock == 0 && b.deferUnlock == 0:
					f.Releases = append(f.Releases, mu)
				}
			}
		}
		w.facts[node.Func] = f
	}
}

// factOf returns a callee's lock summary, in-package or imported.
func (w *walker) factOf(fn *types.Func) (*lockFact, bool) {
	if f, ok := w.facts[fn]; ok {
		return f, true
	}
	var f lockFact
	if w.pass.ImportObjectFact(fn, &f) {
		return &f, true
	}
	return nil, false
}

// callSummary resolves an ExprStmt-level method call `base.m()` to its
// base object and lock summary.
func (w *walker) callSummary(call *ast.CallExpr) (types.Object, *lockFact, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, nil, false
	}
	base, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return nil, nil, false
	}
	obj := w.pass.TypesInfo.Uses[base]
	if obj == nil {
		return nil, nil, false
	}
	callees, kind := w.graph.Resolver.Callees(call)
	if kind != callgraph.KindStatic || len(callees) != 1 {
		return nil, nil, false
	}
	f, ok := w.factOf(callees[0])
	if !ok {
		return nil, nil, false
	}
	return obj, f, true
}

// collectGuards reads the annotations off struct fields, validating that
// the named mutex is a sibling field.
func (w *walker) collectGuards() {
	for _, f := range w.pass.Files {
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
					w.pass.Reportf(fld.Pos(),
						"guarded-by annotation names unknown mutex %q; the guard can never be checked", mu)
					continue
				}
				for _, nm := range fld.Names {
					if v, ok := w.pass.TypesInfo.Defs[nm].(*types.Var); ok && v != nil {
						w.guards[v] = mu
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
func (w *walker) seed(fd *ast.FuncDecl, file *ast.File) lockset {
	scope := map[string]types.Object{}
	addNames := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, nm := range f.Names {
				if obj := w.pass.TypesInfo.Defs[nm]; obj != nil {
					scope[nm.Name] = obj
				}
			}
		}
	}
	addNames(fd.Recv)
	addNames(fd.Type.Params)

	ls := lockset{}
	seedFrom := func(text string) {
		for _, m := range holdRe.FindAllStringSubmatch(text, -1) {
			if obj, ok := scope[m[1]]; ok {
				ls[lockKey{obj, m[2]}] = true
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
	return ls
}

// collectFresh records variables bound to fresh composite literals
// anywhere in the body: until published they are unshared and their
// guarded fields are free.
func (w *walker) collectFresh(body *ast.BlockStmt) {
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
			if obj := w.pass.TypesInfo.Defs[id]; obj != nil {
				w.fresh[obj] = true
			}
		}
		return true
	})
}

// analyzeBody runs the two-pass CFG analysis over one function or
// function-literal body: first solve the lockset fixpoint (transfer
// applies lock operations only — no reporting, since the solver may visit
// a block several times), then replay each reachable block once from its
// solved entry state, checking guarded accesses and descending into
// nested function literals with the lockset their execution context
// implies.
func (w *walker) analyzeBody(body *ast.BlockStmt, seed lockset) {
	g := cfg.New(body)
	res := dataflow.Solve(g, lockLattice{}, dataflow.Forward, seed,
		func(b *cfg.Block, in lockset) lockset {
			for _, n := range b.Nodes {
				w.applyNode(n, in)
			}
			return in
		})
	for _, b := range g.Reachable() {
		in, ok := res.In[b]
		if !ok {
			continue
		}
		ls := in.clone()
		for _, n := range b.Nodes {
			w.checkNode(n, ls)
			w.applyNode(n, ls)
		}
	}
}

// applyNode mutates ls with the lock operations a node performs: direct
// base.mu.Lock/Unlock statement calls, and statement calls to methods
// whose lock summary acquires or releases on the caller's behalf. A
// deferred Unlock releases at return, so it keeps the lock held for the
// rest of the body.
func (w *walker) applyNode(n ast.Node, ls lockset) {
	es, ok := n.(*ast.ExprStmt)
	if !ok {
		return
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return
	}
	if k, locks, ok := w.lockOp(call); ok {
		if locks {
			ls[k] = true
		} else {
			delete(ls, k)
		}
		return
	}
	if base, f, ok := w.callSummary(call); ok {
		for _, mu := range f.Acquires {
			ls[lockKey{base, mu}] = true
		}
		for _, mu := range f.Releases {
			delete(ls, lockKey{base, mu})
		}
	}
}

// checkNode checks every guarded-field access inside n against ls and
// analyzes nested function literals: a go'd or plainly-called literal
// starts empty (concurrency boundary), a deferred literal inherits the
// lockset at the defer point (it runs at return, cleaning up the critical
// section that is still open there).
func (w *walker) checkNode(n ast.Node, ls lockset) {
	switch s := n.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if _, _, ok := w.lockOp(call); ok {
				return // the lock operation itself is not a guarded access
			}
		}
	case *ast.GoStmt:
		for _, a := range s.Call.Args {
			w.checkExpr(a, ls)
		}
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.analyzeBody(fl.Body, lockset{})
		} else {
			w.checkExpr(s.Call.Fun, ls)
		}
		return
	case *ast.DeferStmt:
		if _, locks, ok := w.lockOp(s.Call); ok && !locks {
			return // defer x.mu.Unlock(): no access, no release
		}
		for _, a := range s.Call.Args {
			w.checkExpr(a, ls)
		}
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.analyzeBody(fl.Body, ls.clone())
		} else {
			w.checkExpr(s.Call.Fun, ls)
		}
		return
	case *ast.RangeStmt:
		// The range header node contains the whole loop; the body's
		// statements live in their own blocks — check only the
		// per-iteration assignment here.
		w.checkExpr(s.Key, ls)
		w.checkExpr(s.Value, ls)
		return
	}
	if e, ok := n.(ast.Expr); ok {
		w.checkExpr(e, ls)
		return
	}
	// Statements: check their non-funclit expressions without descending
	// into nested statements (those are separate CFG nodes already —
	// except for statements the builder keeps whole, which Inspect below
	// covers since their sub-statements were not split out).
	w.checkExpr(n, ls)
}

// checkExpr checks guarded accesses under n, treating nested function
// literals as concurrency boundaries (fresh empty lockset).
func (w *walker) checkExpr(n ast.Node, ls lockset) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(nn ast.Node) bool {
		switch nn := nn.(type) {
		case *ast.FuncLit:
			w.analyzeBody(nn.Body, lockset{})
			return false
		case *ast.CallExpr:
			w.checkRequires(nn, ls)
		case *ast.SelectorExpr:
			w.checkAccess(nn, ls)
		}
		return true
	})
}

// checkRequires enforces the callee's callers-hold contract at the call
// site: calling a method documented "callers hold r.mu" without the
// base's mutex provably held is the other half of the bug checkAccess
// catches inside the callee's own package.
func (w *walker) checkRequires(call *ast.CallExpr, ls lockset) {
	base, f, ok := w.callSummary(call)
	if !ok || len(f.Requires) == 0 || w.fresh[base] {
		return
	}
	sel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	baseName := ast.Unparen(sel.X).(*ast.Ident).Name
	for _, mu := range f.Requires {
		if !ls[lockKey{base, mu}] {
			w.pass.Reportf(call.Pos(),
				"%s.%s documents 'callers hold %s.%s' but the mutex is not held at this call — "+
					"lock it first, or propagate the callers-hold contract",
				baseName, sel.Sel.Name, baseName, mu)
		}
	}
}

func (w *walker) checkAccess(sel *ast.SelectorExpr, ls lockset) {
	fieldVar, ok := w.pass.TypesInfo.Uses[sel.Sel].(*types.Var)
	if !ok {
		return
	}
	mu, ok := w.guards[fieldVar]
	if !ok {
		return
	}
	base, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return // multi-step path; the lock instance cannot be named
	}
	obj := w.pass.TypesInfo.Uses[base]
	if obj == nil || w.fresh[obj] || ls[lockKey{obj, mu}] {
		return
	}
	w.pass.Reportf(sel.Pos(),
		"%s.%s is guarded by %s.%s but the mutex is not held here — lock it, "+
			"or document the invariant with a 'callers hold %s.%s' comment",
		base.Name, sel.Sel.Name, base.Name, mu, base.Name, mu)
}

// lockOp recognizes base.mu.Lock/RLock/Unlock/RUnlock() on a sync mutex
// field, returning the lockset key and whether the op acquires.
func (w *walker) lockOp(call *ast.CallExpr) (lockKey, bool, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockKey{}, false, false
	}
	var locks bool
	switch sel.Sel.Name {
	case "Lock", "RLock":
		locks = true
	case "Unlock", "RUnlock":
		locks = false
	default:
		return lockKey{}, false, false
	}
	inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return lockKey{}, false, false
	}
	base, ok := ast.Unparen(inner.X).(*ast.Ident)
	if !ok {
		return lockKey{}, false, false
	}
	obj := w.pass.TypesInfo.Uses[base]
	if obj == nil || !isSyncLock(w.pass, inner) {
		return lockKey{}, false, false
	}
	return lockKey{obj, inner.Sel.Name}, locks, true
}

// isSyncLock reports whether the selected mutex field has a sync lock
// type, so an unrelated Lock() method cannot alias into the lockset.
func isSyncLock(pass *analysis.Pass, inner *ast.SelectorExpr) bool {
	v, ok := pass.TypesInfo.Uses[inner.Sel].(*types.Var)
	if !ok {
		return false
	}
	named, ok := v.Type().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}
