// Package lockorder detects potential deadlocks by building a global
// lock-acquisition order graph and reporting its cycles. The fan-out
// engine holds several mutexes with disjoint jobs (engine scheduler
// state, the sympackd cache, admission bookkeeping, metrics registries);
// a deadlock needs no misuse of any single one — only two code paths
// acquiring two of them in opposite orders. That property is invisible
// to per-function checks like mutexguard, so this analyzer lifts the
// locksets to a cross-package graph via Facts.
//
// Locks are identified at the type level: base.mu.Lock() on a variable
// of (pointer to) named type pkg.T contributes the lock id "pkg.T.mu".
// Within one function, a forward may-dataflow over the control-flow
// graph (internal/lint/cfg + internal/lint/dataflow) tracks which ids
// are held on some path; acquiring B while holding A records the edge
// A→B. Calls made while holding A add edges A→L for every lock L the
// callee may (transitively) acquire — known for same-package callees
// from a local fixpoint and for imported sympack packages from exported
// object Facts. Each package exports its merged edge set as a package
// Fact, so the graph accumulates along the import DAG and a cycle whose
// halves live in different packages is still caught, with both witness
// paths reported.
//
// Self-edges (T.mu → T.mu) are skipped: acquiring two instances of the
// same type in a deliberate order (by index, by address) is a standard
// idiom the type-level abstraction cannot distinguish from a deadlock,
// and flagging it would bury the real findings. Function literals are
// analyzed as separate bodies with an empty held set — a closure runs on
// its own goroutine or schedule, so it witnesses no ordering with its
// creator's held locks.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"sympack/internal/lint/analysis"
	"sympack/internal/lint/callgraph"
	"sympack/internal/lint/cfg"
	"sympack/internal/lint/dataflow"
)

// Name is the analyzer's registry name.
const Name = "lockorder"

// Edge is one observed acquisition order: To was acquired (possibly
// inside a callee) while From was held, witnessed at Pos ("file:line").
type Edge struct {
	From, To string
	Pos      string
}

// lockGraph is the package fact: every acquisition-order edge visible at
// this package — its own plus everything inherited from its imports.
type lockGraph struct{ Edges []Edge }

func (*lockGraph) AFact() {}

// acquires is the object fact on a function: the type-level lock ids the
// function may acquire, directly or transitively.
type acquires struct{ Locks []string }

func (*acquires) AFact() {}

var Analyzer = &analysis.Analyzer{
	Name: Name,
	Doc: "builds the cross-package lock-acquisition order graph from " +
		"sync.Mutex/RWMutex operations (type-level ids, CFG-based held-set " +
		"tracking, transitive acquisition Facts) and reports cycles — two " +
		"paths locking the same pair in opposite orders can deadlock",
	Run:       run,
	FactTypes: []analysis.Fact{(*lockGraph)(nil), (*acquires)(nil)},
}

func run(pass *analysis.Pass) (interface{}, error) {
	w := &walker{
		pass:     pass,
		acquired: map[*types.Func]map[string]bool{},
	}
	fns := w.collectFuncs()
	w.solveAcquires(fns)
	for _, fi := range fns {
		w.collectEdges(fi.decl.Body)
	}
	w.exportFacts(fns)
	w.reportCycles()
	return nil, nil
}

type walker struct {
	pass     *analysis.Pass
	acquired map[*types.Func]map[string]bool // transitive acquire sets (local fixpoint)
	edges    []localEdge                     // edges witnessed in this package
}

type localEdge struct {
	Edge
	pos token.Pos
}

type fnInfo struct {
	decl *ast.FuncDecl
	obj  *types.Func
}

func (w *walker) collectFuncs() []*fnInfo {
	var fns []*fnInfo
	for _, f := range w.pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := w.pass.TypesInfo.Defs[fd.Name].(*types.Func)
			fns = append(fns, &fnInfo{decl: fd, obj: obj})
		}
	}
	return fns
}

// solveAcquires computes, for every local function, the set of lock ids
// it may acquire — direct operations plus everything its callees acquire,
// iterated to fixpoint so intra-package call chains resolve in any order.
// Function literals contribute to their enclosing declaration: a helper
// that locks inside a closure still "may acquire" that lock.
func (w *walker) solveAcquires(fns []*fnInfo) {
	for changed := true; changed; {
		changed = false
		for _, fi := range fns {
			if fi.obj == nil {
				continue
			}
			set := w.acquired[fi.obj]
			if set == nil {
				set = map[string]bool{}
				w.acquired[fi.obj] = set
			}
			before := len(set)
			ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if id, locks, ok := w.lockOp(call); ok && locks {
					set[id] = true
					return true
				}
				for l := range w.calleeAcquires(call) {
					set[l] = true
				}
				return true
			})
			if len(set) != before {
				changed = true
			}
		}
	}
}

// calleeAcquires resolves the acquire set of a call's static callee:
// the local fixpoint table for same-package functions, imported Facts
// for cross-package ones, empty (conservatively silent) otherwise.
func (w *walker) calleeAcquires(call *ast.CallExpr) map[string]bool {
	fn, path := callgraph.Callee(w.pass.TypesInfo, call)
	if path == "" {
		return nil
	}
	if fn.Pkg() == w.pass.Pkg {
		return w.acquired[fn]
	}
	var fact acquires
	if !w.pass.ImportObjectFact(fn, &fact) {
		return nil
	}
	set := make(map[string]bool, len(fact.Locks))
	for _, l := range fact.Locks {
		set[l] = true
	}
	return set
}

// collectEdges runs the held-set may-analysis over one body and records
// an edge for every acquisition (direct or via a callee) made while
// another lock is held. Two passes, as everywhere in the suite: solve the
// fixpoint with a side-effect-free transfer, then replay each reachable
// block once from its solved entry state.
func (w *walker) collectEdges(body *ast.BlockStmt) {
	g := cfg.New(body)
	transfer := func(b *cfg.Block, in dataflow.Set) dataflow.Set {
		for _, n := range b.Nodes {
			w.applyNode(n, in, false)
		}
		return in
	}
	res := dataflow.Solve(g, dataflow.SetLattice{}, dataflow.Forward, dataflow.Set{}, transfer)
	for _, b := range g.Reachable() {
		in, ok := res.In[b]
		if !ok {
			continue
		}
		held := dataflow.Set{}
		for k := range in {
			held[k] = true
		}
		for _, n := range b.Nodes {
			w.applyNode(n, held, true)
		}
	}
}

// applyNode updates the held set with a node's lock operations; when
// record is set it also emits order edges for acquisitions and calls made
// under held locks, and descends into function literals (fresh empty held
// set — a separate execution context).
func (w *walker) applyNode(n ast.Node, held dataflow.Set, record bool) {
	if n == nil {
		return
	}
	// The range header node contains the whole loop; its body statements
	// have their own blocks.
	if r, ok := n.(*ast.RangeStmt); ok {
		w.applyExpr(r.X, held, record)
		return
	}
	if es, ok := n.(*ast.ExprStmt); ok {
		if call, ok := es.X.(*ast.CallExpr); ok {
			if id, locks, ok := w.lockOp(call); ok {
				if locks {
					if record {
						w.recordAcquire(held, id, call.Pos())
					}
					held[id] = true
				} else {
					delete(held, id)
				}
				return
			}
		}
	}
	if ds, ok := n.(*ast.DeferStmt); ok {
		// defer x.mu.Unlock() keeps the lock held for the rest of the
		// body; any other deferred call is analyzed as a separate context.
		if _, locks, ok := w.lockOp(ds.Call); ok && !locks {
			return
		}
		if record {
			if fl, ok := ds.Call.Fun.(*ast.FuncLit); ok {
				w.collectEdges(fl.Body)
			}
		}
		return
	}
	if gs, ok := n.(*ast.GoStmt); ok {
		if record {
			if fl, ok := gs.Call.Fun.(*ast.FuncLit); ok {
				w.collectEdges(fl.Body)
			}
		}
		return
	}
	w.applyExpr(n, held, record)
}

// applyExpr scans an expression tree for calls: lock operations mutate
// the held set, other calls contribute their callee's transitive
// acquisitions as edges. Function literals get their own analysis.
func (w *walker) applyExpr(n ast.Node, held dataflow.Set, record bool) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(nn ast.Node) bool {
		switch nn := nn.(type) {
		case *ast.FuncLit:
			if record {
				w.collectEdges(nn.Body)
			}
			return false
		case *ast.CallExpr:
			if id, locks, ok := w.lockOp(nn); ok {
				if locks {
					if record {
						w.recordAcquire(held, id, nn.Pos())
					}
					held[id] = true
				} else {
					delete(held, id)
				}
				return false
			}
			if record && len(held) > 0 {
				for l := range w.calleeAcquires(nn) {
					w.recordAcquire(held, l, nn.Pos())
				}
			}
		}
		return true
	})
}

// recordAcquire emits one edge per held lock (skipping self-edges) for an
// acquisition of id at pos.
func (w *walker) recordAcquire(held dataflow.Set, id string, pos token.Pos) {
	froms := make([]string, 0, len(held))
	for f := range held {
		if f != id {
			froms = append(froms, f)
		}
	}
	sort.Strings(froms)
	p := w.pass.Fset.Position(pos)
	ps := fmt.Sprintf("%s:%d", p.Filename, p.Line)
	for _, f := range froms {
		w.edges = append(w.edges, localEdge{Edge: Edge{From: f, To: id, Pos: ps}, pos: pos})
	}
}

// lockOp recognizes base.field.Lock/RLock/Unlock/RUnlock() on a
// sync.Mutex/RWMutex field of a named type, returning the type-level lock
// id and whether the call acquires.
func (w *walker) lockOp(call *ast.CallExpr) (string, bool, bool) {
	mu, locks := analysis.MutexOp(w.pass.TypesInfo, call)
	if mu == nil {
		return "", false, false
	}
	tv, ok := w.pass.TypesInfo.Types[mu.X]
	if !ok {
		return "", false, false
	}
	t := tv.Type
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return "", false, false
	}
	id := named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + mu.Sel.Name
	return id, locks, true
}

// exportFacts publishes the per-function acquire sets, for importers'
// calls into this package, and the package's merged edge graph.
func (w *walker) exportFacts(fns []*fnInfo) {
	for _, fi := range fns {
		if fi.obj == nil {
			continue
		}
		set := w.acquired[fi.obj]
		if len(set) == 0 {
			continue
		}
		locks := make([]string, 0, len(set))
		for l := range set {
			locks = append(locks, l)
		}
		sort.Strings(locks)
		w.pass.ExportObjectFact(fi.obj, &acquires{Locks: locks})
	}
	w.pass.ExportPackageFact(&lockGraph{Edges: w.mergedEdges()})
}

// mergedEdges deduplicates this package's own edges with every imported
// package's graph fact, keeping the first-seen witness position per
// (From, To) pair, in sorted order.
func (w *walker) mergedEdges() []Edge {
	type key struct{ from, to string }
	seen := map[key]Edge{}
	addEdge := func(e Edge) {
		k := key{e.From, e.To}
		if _, ok := seen[k]; !ok {
			seen[k] = e
		}
	}
	for _, le := range w.edges {
		addEdge(le.Edge)
	}
	// Imports() is sorted by path, keeping the merge deterministic.
	for _, imp := range w.pass.Pkg.Imports() {
		var g lockGraph
		if w.pass.ImportPackageFact(imp, &g) {
			for _, e := range g.Edges {
				addEdge(e)
			}
		}
	}
	keys := make([]key, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].from != keys[j].from {
			return keys[i].from < keys[j].from
		}
		return keys[i].to < keys[j].to
	})
	out := make([]Edge, 0, len(keys))
	for _, k := range keys {
		out = append(out, seen[k])
	}
	return out
}

// reportCycles looks for a path To→…→From in the merged graph for every
// locally-witnessed edge From→To: together they close a cycle, i.e. two
// executions can each hold one lock while waiting for the other. Each
// cycle is reported once, at the local witness.
func (w *walker) reportCycles() {
	if len(w.edges) == 0 {
		return
	}
	merged := w.mergedEdges()
	adj := map[string][]Edge{}
	for _, e := range merged {
		adj[e.From] = append(adj[e.From], e)
	}
	reported := map[string]bool{}
	for _, le := range w.edges {
		path := shortestPath(adj, le.To, le.From)
		if path == nil {
			continue
		}
		// Canonical cycle key: the sorted set of lock ids involved.
		idSet := map[string]bool{le.From: true, le.To: true}
		for _, e := range path {
			idSet[e.To] = true
		}
		ids := make([]string, 0, len(idSet))
		for id := range idSet {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		key := strings.Join(ids, "|")
		if reported[key] {
			continue
		}
		reported[key] = true

		var back []string
		for _, e := range path {
			back = append(back, fmt.Sprintf("%s→%s at %s", e.From, e.To, e.Pos))
		}
		w.pass.Reportf(le.pos,
			"lock order cycle: %s is acquired while holding %s here, but the "+
				"opposite order exists (%s) — two goroutines taking these paths "+
				"concurrently can deadlock; pick one global order",
			le.To, le.From, strings.Join(back, ", "))
	}
}

// shortestPath BFSes from src to dst over the merged edges, returning the
// edge sequence or nil. Adjacency lists come from mergedEdges and are
// therefore already sorted, keeping the witness deterministic.
func shortestPath(adj map[string][]Edge, src, dst string) []Edge {
	type item struct {
		node string
		path []Edge
	}
	visited := map[string]bool{src: true}
	queue := []item{{node: src}}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		for _, e := range adj[it.node] {
			if visited[e.To] {
				continue
			}
			p := append(append([]Edge{}, it.path...), e)
			if e.To == dst {
				return p
			}
			visited[e.To] = true
			queue = append(queue, item{node: e.To, path: p})
		}
	}
	return nil
}
