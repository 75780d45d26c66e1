package locks

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"

	"sympack/internal/lint/analysis"
	"sympack/internal/lint/callgraph"
	"sympack/internal/lint/dataflow"
)

// LockOrder detects potential deadlocks by building a global
// lock-acquisition order graph and reporting its cycles. The fan-out
// engine holds several mutexes with disjoint jobs (engine scheduler
// state, the sympackd cache, admission bookkeeping, metrics registries);
// a deadlock needs no misuse of any single one — only two code paths
// acquiring two of them in opposite orders. That property is invisible
// to per-function checks like mutexguard, so this analyzer lifts the
// locksets to a cross-package graph via facts.
//
// Locks are identified at the type level: base.mu.Lock() on a value of
// (pointer to) named type pkg.T is the lock "pkg.T.mu". The walk's may
// reading tracks which are held on some path; acquiring B while holding A
// records the edge A→B, and so does a call made while holding A to a
// function whose summary may acquire B. Each package exports its merged
// edge set as a package fact, so the graph accumulates along the import
// DAG and a cycle whose halves live in different packages is still
// caught, with both witness paths reported.
//
// Self-edges (T.mu → T.mu) are skipped: acquiring two instances of the
// same type in a deliberate order (by index, by address) is a standard
// idiom the type-level abstraction cannot distinguish from a deadlock,
// and flagging it would bury the real findings.
var LockOrder = &analysis.Analyzer{
	Name: "lockorder",
	Doc: "builds the cross-package lock-acquisition order graph from " +
		"sync.Mutex/RWMutex operations (type-level ids, CFG-based held-set " +
		"tracking, transitive acquisition Facts) and reports cycles — two " +
		"paths locking the same pair in opposite orders can deadlock",
	Run:       runLockOrder,
	FactTypes: []analysis.Fact{(*summary)(nil), (*lockGraph)(nil)},
}

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

type order struct {
	pass  *analysis.Pass
	edges []localEdge // edges witnessed in this package
}

type localEdge struct {
	Edge
	pos token.Pos
}

func runLockOrder(pass *analysis.Pass) (interface{}, error) {
	o := &order{pass: pass}
	w := &walk{pass: pass, sums: summarize(pass), acquire: o.record}
	w.call = func(call *ast.CallExpr, held dataflow.Set) {
		if fn, _ := callgraph.Callee(pass.TypesInfo, call); fn != nil && len(held) > 0 {
			if s, ok := w.sums.Of(fn); ok {
				for _, l := range s.Locks {
					o.record(held, l, call.Pos())
				}
			}
		}
	}
	for _, n := range w.sums.Nodes {
		w.body(n.Decl.Body, dataflow.Set{})
	}
	merged := o.mergedEdges()
	pass.ExportPackageFact(&lockGraph{Edges: merged})
	o.reportCycles(merged)
	return nil, nil
}

// record emits one edge per held lock (skipping self-edges) for an
// acquisition of id at pos.
func (o *order) record(held dataflow.Set, id string, pos token.Pos) {
	froms := make([]string, 0, len(held))
	for f := range held {
		if f != id {
			froms = append(froms, f)
		}
	}
	sort.Strings(froms)
	p := o.pass.Fset.Position(pos)
	ps := fmt.Sprintf("%s:%d", p.Filename, p.Line)
	for _, f := range froms {
		o.edges = append(o.edges, localEdge{Edge: Edge{From: f, To: id, Pos: ps}, pos: pos})
	}
}

// mergedEdges deduplicates this package's own edges with every imported
// package's graph fact, keeping the first-seen witness position per
// (From, To) pair, in sorted order.
func (o *order) mergedEdges() []Edge {
	type key struct{ from, to string }
	seen := map[key]Edge{}
	addEdge := func(e Edge) {
		k := key{e.From, e.To}
		if _, ok := seen[k]; !ok {
			seen[k] = e
		}
	}
	for _, le := range o.edges {
		addEdge(le.Edge)
	}
	// Imports() is sorted by path, keeping the merge deterministic.
	for _, imp := range o.pass.Pkg.Imports() {
		var g lockGraph
		if o.pass.ImportPackageFact(imp, &g) {
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
func (o *order) reportCycles(merged []Edge) {
	adj := map[string][]Edge{}
	for _, e := range merged {
		adj[e.From] = append(adj[e.From], e)
	}
	reported := map[string]bool{}
	for _, le := range o.edges {
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
		o.pass.Reportf(le.pos,
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
