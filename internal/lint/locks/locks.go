// Package locks holds the suite's two lock analyzers, MutexGuard
// ("mutexguard": guarded fields are accessed under their mutex) and
// LockOrder ("lockorder": no two paths take two locks in opposite orders),
// on one machinery:
//
//   - one recogniser of x.mu.Lock/RLock/Unlock/RUnlock on a sync.Mutex or
//     sync.RWMutex field, which keys the mutex both ways: by instance (the
//     base variable and the field, mutexguard's key) and by type
//     ("pkg.T.mu", lockorder's);
//   - one per-function lock summary, solved callee-first on the call graph
//     and exported as a fact for importing packages;
//   - one walk of a function body: a forward dataflow over its CFG whose
//     state is the set of held locks, with lock operations and callee
//     summaries as the transfer, and a replay that calls the analyzer back
//     on acquisitions, calls and selector expressions.
//
// The walk's one parameter is the reading: must (mutexguard) tracks
// instances held on every path, set intersection at merges, and lets a
// deferred function literal — it runs at return, closing the critical
// section still open there — inherit the lockset; may (lockorder) tracks
// types held on some path, and starts every literal empty, as its own
// execution context. Either way a go'd or plainly evaluated literal starts
// empty, and `defer x.mu.Unlock()` releases nothing: the lock stays held
// for the rest of the body, as the idiom means.
package locks

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"slices"
	"sort"

	"sympack/internal/lint/analysis"
	"sympack/internal/lint/callgraph"
	"sympack/internal/lint/cfg"
	"sympack/internal/lint/dataflow"
)

// holdRe matches a "callers hold x.mu" contract in a comment.
var holdRe = regexp.MustCompile(`(?i)callers?\s+holds?\s+(\w+)\.(\w+)`)

// A lockOp is one recognised lock operation on the mutex field named
// field, with both keys of the mutex: inst for the instance, id for the
// type. A key is "" where the base is not a plain variable, or its type is
// not (a pointer to) a named type.
type lockOp struct {
	field    string
	inst, id string
	acquires bool
}

// recognise returns the lock operation a call performs, if it is one: an
// unrelated Lock method cannot pass for a mutex's.
func recognise(info *types.Info, call *ast.CallExpr) (lockOp, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockOp{}, false
	}
	acquires := sel.Sel.Name == "Lock" || sel.Sel.Name == "RLock"
	if !acquires && sel.Sel.Name != "Unlock" && sel.Sel.Name != "RUnlock" {
		return lockOp{}, false
	}
	mu, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return lockOp{}, false
	}
	v, ok := info.Uses[mu.Sel].(*types.Var)
	if !ok {
		return lockOp{}, false
	}
	named, ok := v.Type().(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" ||
		(named.Obj().Name() != "Mutex" && named.Obj().Name() != "RWMutex") {
		return lockOp{}, false
	}
	f := mu.Sel.Name
	return lockOp{f, instKey(info, mu.X, f), typeKey(info, mu.X, f), acquires}, true
}

// instKey keys the mutex field of a plain variable.
func instKey(info *types.Info, base ast.Expr, field string) string {
	if id, ok := ast.Unparen(base).(*ast.Ident); ok && info.Uses[id] != nil {
		return objField(info.Uses[id], field)
	}
	return ""
}

func objField(obj types.Object, field string) string { return dataflow.Key(obj) + "." + field }

// typeKey keys the mutex field of a value of (pointer to) named type.
func typeKey(info *types.Info, base ast.Expr, field string) string {
	tv, ok := info.Types[base]
	if !ok {
		return ""
	}
	t := tv.Type
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + field
}

// summary is a function's effect on locks as its callers see it. Requires,
// Acquires and Releases name mutex fields of a method's receiver: a
// documented "callers hold r.mu" contract, a mutex it locks and leaves
// held (the lockAndX idiom), one it unlocks without having locked it.
// Only clear-cut shapes count: mixed lock and unlock traffic on one mutex
// has no net effect a caller could rely on. Locks are the type-level ids
// the function may acquire, itself, in a literal it creates, or through a
// callee.
type summary struct {
	Requires, Acquires, Releases []string
	Locks                        []string
}

func (*summary) AFact() {}

// summarize solves and exports the package's lock summaries.
func summarize(pass *analysis.Pass) *callgraph.Summaries[*summary] {
	sums := callgraph.NewSummaries[summary](pass)
	sums.Solve(func(n *callgraph.Node) bool {
		s := receiverEffect(pass, n.Decl)
		locks := map[string]bool{}
		ast.Inspect(n.Decl.Body, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			if op, ok := recognise(pass.TypesInfo, call); ok && op.id != "" {
				if op.acquires {
					locks[op.id] = true
				}
				return true
			}
			if fn, _ := callgraph.Callee(pass.TypesInfo, call); fn != nil {
				if c, ok := sums.Of(fn); ok {
					for _, l := range c.Locks {
						locks[l] = true
					}
				}
			}
			return true
		})
		for l := range locks {
			s.Locks = append(s.Locks, l)
		}
		sort.Strings(s.Locks)
		old := sums.Local[n.Func]
		sums.Local[n.Func] = s
		return old == nil || !slices.Equal(old.Locks, s.Locks)
	})
	sums.Export(func(s *summary) bool {
		return len(s.Requires)+len(s.Acquires)+len(s.Releases)+len(s.Locks) > 0
	})
	return sums
}

// receiverEffect reads a method's contract off its doc comment and its
// net lock balance on its receiver's mutexes off its own statements.
func receiverEffect(pass *analysis.Pass, fd *ast.FuncDecl) *summary {
	s := &summary{}
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return s
	}
	recv := fd.Recv.List[0].Names[0]
	recvObj := pass.TypesInfo.Defs[recv]
	if recvObj == nil {
		return s
	}
	if fd.Doc != nil {
		for _, m := range holdRe.FindAllStringSubmatch(fd.Doc.Text(), -1) {
			if m[1] == recv.Name {
				s.Requires = append(s.Requires, m[2])
			}
		}
	}
	type balance struct{ lock, unlock, deferUnlock int }
	counts := map[string]*balance{}
	tally := func(call *ast.CallExpr, deferred bool) {
		op, ok := recognise(pass.TypesInfo, call)
		if !ok || op.inst != objField(recvObj, op.field) {
			return
		}
		b := counts[op.field]
		if b == nil {
			b = &balance{}
			counts[op.field] = b
		}
		switch {
		case op.acquires:
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
		switch b := counts[mu]; {
		case b.lock > 0 && b.unlock == 0 && b.deferUnlock == 0:
			s.Acquires = append(s.Acquires, mu)
		case b.unlock > 0 && b.lock == 0 && b.deferUnlock == 0:
			s.Releases = append(s.Releases, mu)
		}
	}
	return s
}

// A walk follows the locks held through function bodies; see the package
// doc. The callbacks, each optional, see the lockset that holds before the
// node they are called for.
type walk struct {
	pass *analysis.Pass
	sums *callgraph.Summaries[*summary]
	must bool

	acquire func(held dataflow.Set, key string, pos token.Pos) // a lock operation acquiring key
	call    func(call *ast.CallExpr, held dataflow.Set)        // any other call
	sel     func(sel *ast.SelectorExpr, held dataflow.Set)     // a selector expression
}

// key is the walk's key of a mutex field reached through base.
func (w *walk) key(base ast.Expr, field string) string {
	if w.must {
		return instKey(w.pass.TypesInfo, base, field)
	}
	return typeKey(w.pass.TypesInfo, base, field)
}

// lockOp recognises a lock operation on a mutex the walk can key.
func (w *walk) lockOp(call *ast.CallExpr) (key string, acquires, ok bool) {
	op, ok := recognise(w.pass.TypesInfo, call)
	key = op.id
	if w.must {
		key = op.inst
	}
	return key, op.acquires, ok && key != ""
}

// callee returns the selector and lock summary of a method call
// base.m(), or a nil summary.
func (w *walk) callee(call *ast.CallExpr) (*ast.SelectorExpr, *summary) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, nil
	}
	fn, _ := callgraph.Callee(w.pass.TypesInfo, call)
	if fn == nil {
		return nil, nil
	}
	s, _ := w.sums.Of(fn)
	return sel, s
}

// body walks one function or literal body from the entry lockset: solve
// with a transfer that only applies lock effects, then replay each
// reachable block once with the callbacks.
func (w *walk) body(b *ast.BlockStmt, entry dataflow.Set) {
	g := cfg.New(b)
	res := dataflow.Solve(g, dataflow.SetLattice{Intersect: w.must}, dataflow.Forward, entry, dataflow.Steps(w.apply))
	dataflow.Replay(g, res, func(n ast.Node, held dataflow.Set) {
		w.visit(n, held)
		w.apply(n, held)
	})
}

// apply is the transfer of one node: a lock operation statement, or a
// method call statement whose summary acquires or releases mutexes of its
// base on the caller's behalf. A deferred unlock is not applied: the lock
// stays held for the rest of the body.
func (w *walk) apply(n ast.Node, held dataflow.Set) {
	es, ok := n.(*ast.ExprStmt)
	if !ok {
		return
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return
	}
	if k, acquires, ok := w.lockOp(call); ok {
		if acquires {
			held[k] = true
		} else {
			delete(held, k)
		}
		return
	}
	if sel, s := w.callee(call); s != nil {
		for _, mu := range s.Acquires {
			if k := w.key(sel.X, mu); k != "" {
				held[k] = true
			}
		}
		for _, mu := range s.Releases {
			delete(held, w.key(sel.X, mu))
		}
	}
}

// visit calls back on what node n evaluates and walks the function
// literals it contains.
func (w *walk) visit(n ast.Node, held dataflow.Set) {
	switch s := n.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if k, acquires, ok := w.lockOp(call); ok {
				if acquires && w.acquire != nil {
					w.acquire(held, k, call.Pos())
				}
				return // the operation itself is no access
			}
		}
	case *ast.GoStmt:
		w.later(s.Call, held, dataflow.Set{})
		return
	case *ast.DeferStmt:
		if _, acquires, ok := w.lockOp(s.Call); ok && !acquires {
			return // defer x.mu.Unlock(): no access, no release
		}
		entry := dataflow.Set{}
		if w.must {
			entry = dataflow.SetLattice{}.Clone(held)
		}
		w.later(s.Call, held, entry)
		return
	case *ast.RangeStmt:
		// The header binds the key and value each iteration; the ranged
		// operand and the body's statements are nodes of their own.
		w.scan(s.Key, held)
		w.scan(s.Value, held)
		return
	}
	w.scan(n, held)
}

// later visits a go or deferred call: its arguments are evaluated now, a
// literal it calls runs later, from entry.
func (w *walk) later(call *ast.CallExpr, held, entry dataflow.Set) {
	for _, a := range call.Args {
		w.scan(a, held)
	}
	if fl, ok := call.Fun.(*ast.FuncLit); ok {
		w.body(fl.Body, entry)
	} else {
		w.scan(call.Fun, held)
	}
}

// scan calls back on the calls and selectors under n and walks each
// function literal there from an empty lockset: a closure may run long
// after the critical section around it ends.
func (w *walk) scan(n ast.Node, held dataflow.Set) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			w.body(m.Body, dataflow.Set{})
			return false
		case *ast.CallExpr:
			if w.call != nil {
				w.call(m, held)
			}
		case *ast.SelectorExpr:
			if w.sel != nil {
				w.sel(m, held)
			}
		}
		return true
	})
}
