// Package ordering computes fill-reducing orderings for sparse symmetric
// matrices. It is the substitute for the Scotch library the paper uses
// (§5, AD/AE): the primary algorithm is nested dissection (George [10]),
// with minimum-degree used on small subproblems and available standalone,
// plus reverse Cuthill–McKee and the identity ordering for comparison.
//
// All functions return a permutation in new-to-old form: perm[k] is the
// original index of the k-th row/column of the reordered matrix, the
// convention accepted by matrix.SparseSym.Permute.
package ordering

import (
	"fmt"
	"runtime"
	"sort"
	"strings"

	"sympack/internal/graph"
	"sympack/internal/matrix"
)

// Kind selects an ordering algorithm. The zero value is nested
// dissection, the default of every caller.
type Kind int

const (
	// NestedDissection is recursive graph bisection with vertex
	// separators ordered last — the Scotch-equivalent default.
	NestedDissection Kind = iota
	// Natural is the identity ordering (no permutation).
	Natural
	// RCM is reverse Cuthill–McKee (bandwidth reducing).
	RCM
	// MinDegree is quotient-graph minimum degree.
	MinDegree
)

func (k Kind) String() string {
	switch k {
	case Natural:
		return "NATURAL"
	case RCM:
		return "RCM"
	case MinDegree:
		return "MINDEGREE"
	case NestedDissection:
		return "SCOTCH-ND"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind converts a command-line style name ("SCOTCH", "nd", "AMD", ...),
// in any letter case, into a Kind. The paper's driver accepts "-ordering
// SCOTCH"; we map that to nested dissection.
func ParseKind(s string) (Kind, error) {
	switch strings.ToUpper(s) {
	case "NATURAL", "NONE":
		return Natural, nil
	case "RCM":
		return RCM, nil
	case "MINDEGREE", "MMD", "AMD", "MD":
		return MinDegree, nil
	case "SCOTCH", "ND", "METIS":
		return NestedDissection, nil
	default:
		return 0, fmt.Errorf("ordering: unknown kind %q", s)
	}
}

// Compute returns a fill-reducing permutation for the matrix.
func Compute(kind Kind, a *matrix.SparseSym) ([]int32, error) {
	switch kind {
	case Natural:
		return identity(a.N), nil
	case RCM:
		return rcm(graph.FromSparse(a)), nil
	case MinDegree:
		return minDegree(graph.FromSparse(a)), nil
	case NestedDissection:
		return nestedDissection(graph.FromSparse(a)), nil
	default:
		return nil, fmt.Errorf("ordering: unknown kind %d", int(kind))
	}
}

func identity(n int) []int32 {
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i)
	}
	return p
}

// Validate checks that perm is a permutation of 0..n-1.
func Validate(perm []int32, n int) error {
	if len(perm) != n {
		return fmt.Errorf("ordering: permutation length %d != n %d", len(perm), n)
	}
	seen := make([]bool, n)
	for k, v := range perm {
		if v < 0 || int(v) >= n {
			return fmt.Errorf("ordering: perm[%d]=%d out of range", k, v)
		}
		if seen[v] {
			return fmt.Errorf("ordering: duplicate value %d", v)
		}
		seen[v] = true
	}
	return nil
}

// ---------------------------------------------------------------- RCM ----

func rcm(g *graph.Graph) []int32 {
	n := g.N
	ws := graph.NewWorkspace(n)
	perm := make([]int32, 0, n)
	visited := make([]bool, n)
	for v0 := 0; v0 < n; v0++ {
		if visited[v0] {
			continue
		}
		root, _ := g.PseudoPeripheral(ws, int32(v0), nil, 0)
		// Cuthill–McKee BFS ordering neighbors by increasing degree; perm
		// is its own queue.
		start := len(perm)
		perm = append(perm, root)
		visited[root] = true
		for head := start; head < len(perm); head++ {
			first := len(perm)
			for _, w := range g.Neighbors(perm[head]) {
				if !visited[w] {
					visited[w] = true
					perm = append(perm, w)
				}
			}
			if nbrs := perm[first:]; len(nbrs) > 1 {
				sort.Slice(nbrs, func(a, b int) bool { return g.Degree(nbrs[a]) < g.Degree(nbrs[b]) })
			}
		}
		// Reverse this component's span.
		for i, j := start, len(perm)-1; i < j; i, j = i+1, j-1 {
			perm[i], perm[j] = perm[j], perm[i]
		}
	}
	return perm
}

// --------------------------------------------------------- MinDegree ----

// minDegree orders the whole graph by minimum degree.
func minDegree(g *graph.Graph) []int32 {
	perm := identity(g.N)
	newMinDegreeWorkspace(g.N).order(g, perm, make([]int32, g.N), 0)
	return perm
}

// minDegreeWorkspace is the state of quotient-graph minimum degree with
// exact external degrees and element absorption (George & Liu's QMD
// family): eliminated pivots become elements; a vertex's neighborhood is
// its remaining vertex adjacency plus the union of its adjacent elements'
// vertex lists. One workspace orders any number of disjoint vertex sets of
// one graph, one after the other, and after the first few allocates
// nothing: the per-vertex arrays are indexed by global vertex id, the
// per-run buffers grow to the largest set seen and stay.
type minDegreeWorkspace struct {
	// Per vertex. A vertex's lists share one region of adj starting at
	// ptr[v]: vlen[v] vertices (its pruned adjacency), then elen[v] element
	// ids. The region is as long as the adjacency it was loaded with and
	// never overflows: a step that appends the new element to v's list
	// first removes the pivot from its vertices or an absorbed element from
	// its elements.
	ptr, vlen, elen []int32
	degree          []int32
	eliminated      []bool
	marker          []int32 // marker[w] == stamp: w already counted by the current reach
	stamp           int32
	covered         []int32 // covered[w] == nformed: w lies in the element just formed
	nformed         int32

	// Per run, indexed by position or by element id within the run.
	adj              []int32
	arena            []int32 // element vertex lists, in element order
	top              int32   // first free slot of arena
	elemPtr, elemLen []int32 // an element's list in arena; elemLen < 0 once absorbed
	heap             degHeap
}

func newMinDegreeWorkspace(n int) *minDegreeWorkspace {
	return &minDegreeWorkspace{
		ptr: make([]int32, n), vlen: make([]int32, n), elen: make([]int32, n),
		degree: make([]int32, n), eliminated: make([]bool, n),
		marker: make([]int32, n), covered: make([]int32, n),
	}
}

// fork returns a workspace for minimum-degree runs on vertices of verts,
// which may go on concurrently with m's runs on vertices that no vertex of
// verts neighbours. It shares m's per-vertex arrays and continues from m's
// marker stamp and element count, so no stale mark in them can be mistaken
// for one of its own; its per-run buffers are its own, sized for any leaf
// of verts.
func (m *minDegreeWorkspace) fork(g *graph.Graph, verts []int32) *minDegreeWorkspace {
	h := &minDegreeWorkspace{
		ptr: m.ptr, vlen: m.vlen, elen: m.elen, degree: m.degree, eliminated: m.eliminated,
		marker: m.marker, stamp: m.stamp, covered: m.covered, nformed: m.nformed,
	}
	h.reserve(g, verts)
	return h
}

// heapRoom bounds the heap of a run on ndLeafSize vertices: one push per
// vertex, then at most ndLeafSize−1 per pivot.
const heapRoom = ndLeafSize * ndLeafSize

// reserve sizes the per-run buffers for any run of at most ndLeafSize of
// verts, so that nested dissection's leaves never grow them. Only a run on
// a set that failed to bisect can be longer.
func (m *minDegreeWorkspace) reserve(g *graph.Graph, verts []int32) {
	// A run loads at most the adjacency of its vertices: no more than the
	// ndLeafSize largest degrees of verts add up to.
	var top [ndLeafSize]int // the largest degrees seen, unordered
	low := 0                // where the smallest of them is
	for _, v := range verts {
		if d := g.Degree(v); d > top[low] {
			top[low] = d
			for i := range top {
				if top[i] < top[low] {
					low = i
				}
			}
		}
	}
	room := 0
	for _, d := range top {
		room += d
	}
	// One allocation, carved with capped slices: a buffer that outgrows its
	// piece is reallocated by grown or append, never spills into the next.
	buf := make([]int32, 3*room+2*ndLeafSize+2*heapRoom)
	carve := func(n int) []int32 {
		piece := buf[:0:n]
		buf = buf[n:]
		return piece
	}
	m.adj, m.arena = carve(room), carve(2*room)
	m.elemPtr, m.elemLen = carve(ndLeafSize), carve(ndLeafSize)
	m.heap = degHeap{deg: carve(heapRoom), v: carve(heapRoom)}
}

// grown returns buf resized to n, reallocating (contents dropped) only when
// its capacity is too small.
func grown(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n, max(n, 2*cap(buf)))
	}
	return buf[:n]
}

// order eliminates the vertices of verts — ascending, the set label[v] ==
// cur — by minimum degree within the subgraph they induce, and overwrites
// verts with the elimination order.
func (m *minDegreeWorkspace) order(g *graph.Graph, verts []int32, label []int32, cur int32) {
	room := 0
	for _, v := range verts {
		room += g.Degree(v)
	}
	m.adj = grown(m.adj, room)
	// Vertex lists plus live element lists never exceed the loaded adjacency
	// (a new element is no longer than the pivot's list and the elements it
	// absorbs), so twice that holds the live elements and the one being
	// formed; compaction reclaims the absorbed ones.
	m.arena = grown(m.arena, 2*room)
	m.elemPtr = grown(m.elemPtr, len(verts))
	m.elemLen = grown(m.elemLen, len(verts))
	m.top = 0
	m.heap.reset()
	k := int32(0)
	for _, v := range verts {
		m.ptr[v] = k
		for _, w := range g.Neighbors(v) {
			if label[w] == cur {
				m.adj[k] = w
				k++
			}
		}
		m.vlen[v], m.elen[v] = k-m.ptr[v], 0
		m.degree[v] = m.vlen[v]
		m.heap.push(m.degree[v], v)
	}

	nelem := int32(0)
	for i := range verts {
		p := m.heap.popValid(m.eliminated, m.degree)
		verts[i] = p
		// The pivot's neighborhood becomes the new element, written
		// straight to the top of the arena.
		absorbed := m.adj[m.ptr[p]+m.vlen[p] : m.ptr[p]+m.vlen[p]+m.elen[p]]
		need := m.vlen[p]
		for _, e := range absorbed {
			need += m.elemLen[e]
		}
		if int(m.top+need) > len(m.arena) {
			m.compact(nelem)
		}
		lp := m.arena[m.top : m.top+m.reach(p, true)]
		m.eliminated[p] = true
		if len(lp) == 0 {
			continue
		}
		eid := nelem
		nelem++
		m.elemPtr[eid], m.elemLen[eid] = m.top, int32(len(lp))
		m.top += int32(len(lp))
		for _, e := range absorbed {
			m.elemLen[e] = -1
		}
		m.nformed++
		for _, w := range lp {
			m.covered[w] = m.nformed
		}
		for _, v := range lp {
			// Prune vertex adjacency: drop eliminated vertices and vertices
			// covered by the new element. Then drop absorbed elements and
			// append the new one.
			base := m.ptr[v]
			k := base
			for _, w := range m.adj[base : base+m.vlen[v]] {
				if !m.eliminated[w] && m.covered[w] != m.nformed {
					m.adj[k] = w
					k++
				}
			}
			elems := m.adj[base+m.vlen[v] : base+m.vlen[v]+m.elen[v]]
			m.vlen[v] = k - base
			for _, e := range elems {
				if m.elemLen[e] >= 0 {
					m.adj[k] = e
					k++
				}
			}
			m.adj[k] = eid
			m.elen[v] = k + 1 - base - m.vlen[v]
			// Exact external degree refresh.
			m.degree[v] = m.reach(v, false)
			m.heap.push(m.degree[v], v)
		}
	}
}

// reach counts the current neighborhood of v (excluding v and eliminated
// vertices), using marker/stamp for dedup: the vertex adjacency first, then
// each adjacent element's list. With store set it also writes the vertices,
// in that order, at the top of the arena.
func (m *minDegreeWorkspace) reach(v int32, store bool) int32 {
	m.stamp++
	m.marker[v] = m.stamp
	vend := m.ptr[v] + m.vlen[v]
	n := m.visit(m.adj[m.ptr[v]:vend], 0, store)
	for _, e := range m.adj[vend : vend+m.elen[v]] {
		n = m.visit(m.arena[m.elemPtr[e]:m.elemPtr[e]+m.elemLen[e]], n, store)
	}
	return n
}

// visit is one list's share of reach: n vertices have been counted so far.
func (m *minDegreeWorkspace) visit(list []int32, n int32, store bool) int32 {
	for _, w := range list {
		if !m.eliminated[w] && m.marker[w] != m.stamp {
			m.marker[w] = m.stamp
			if store {
				m.arena[m.top+n] = w
			}
			n++
		}
	}
	return n
}

// compact slides the live elements of the run down over the absorbed ones,
// keeping their order.
func (m *minDegreeWorkspace) compact(nelem int32) {
	top := int32(0)
	for e := int32(0); e < nelem; e++ {
		n := m.elemLen[e]
		if n < 0 {
			continue
		}
		copy(m.arena[top:top+n], m.arena[m.elemPtr[e]:m.elemPtr[e]+n])
		m.elemPtr[e] = top
		top += n
	}
	m.top = top
}

// degHeap is a binary min-heap with lazy invalidation: stale entries are
// skipped at pop time when their recorded degree no longer matches.
type degHeap struct {
	deg []int32
	v   []int32
}

func (h *degHeap) reset() { h.deg, h.v = h.deg[:0], h.v[:0] }

func (h *degHeap) push(d, v int32) {
	h.deg = append(h.deg, d)
	h.v = append(h.v, v)
	i := len(h.deg) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.deg[p] <= h.deg[i] {
			break
		}
		h.deg[p], h.deg[i] = h.deg[i], h.deg[p]
		h.v[p], h.v[i] = h.v[i], h.v[p]
		i = p
	}
}

func (h *degHeap) pop() (d, v int32) {
	d, v = h.deg[0], h.v[0]
	last := len(h.deg) - 1
	h.deg[0], h.v[0] = h.deg[last], h.v[last]
	h.deg, h.v = h.deg[:last], h.v[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h.deg) && h.deg[l] < h.deg[small] {
			small = l
		}
		if r < len(h.deg) && h.deg[r] < h.deg[small] {
			small = r
		}
		if small == i {
			break
		}
		h.deg[i], h.deg[small] = h.deg[small], h.deg[i]
		h.v[i], h.v[small] = h.v[small], h.v[i]
		i = small
	}
	return d, v
}

// popValid pops until it finds a live entry whose degree is current.
func (h *degHeap) popValid(eliminated []bool, degree []int32) int32 {
	for {
		d, v := h.pop()
		if !eliminated[v] && degree[v] == d {
			return v
		}
	}
}

// -------------------------------------------------- NestedDissection ----

// ndLeafSize is the subproblem size below which recursion stops and
// minimum degree takes over; 48 balances separator quality against the
// cost of deep recursion on small meshes.
const ndLeafSize = 48

// Sides of a bisection.
const (
	sideA   int8 = 0
	sideSep int8 = 1
	sideB   int8 = 2
)

// forkMin is the size both halves of a dissection must reach before the
// first half is handed to a helper goroutine. Below it a goroutine and its
// buffers cost more than the half takes to order.
const forkMin = 1024

// dissector is the state of one nested dissection. Nothing is copied out
// of the graph: the vertex set a recursion step works on is a sub-range of
// verts whose vertices all carry one label, and every step reorders its
// range in place — components side by side, then A | B | separator — and
// hands the parts fresh labels, so that when the recursion returns verts
// is the permutation.
//
// Every range is ascending when its step starts: the initial range is
// 0..n-1, and both the component split and the side partition are stable.
// Position in the range is therefore order-isomorphic to vertex id, and
// walking g.Neighbors(v) while skipping label[w] != cur visits neighbors
// in the order a renumbered copy of the induced subgraph would list them.
//
// The two halves of a dissection may be ordered at the same time, each by
// its own dissector (see order). The arrays indexed by vertex — label,
// side, the visit stamps in ws and md's per-vertex arrays — and verts are
// shared; the rest belongs to one goroutine.
type dissector struct {
	g       *graph.Graph
	ws      *graph.Workspace
	md      *minDegreeWorkspace
	verts   []int32
	label   []int32 // vertex → part
	next    int32   // first label not yet handed out
	side    []int8  // bisection side, valid for the range being bisected
	scratch []int32 // target of the stable side partition
	forks   int     // helper goroutines this dissector may still start
}

// nestedDissection orders g with up to GOMAXPROCS-1 helper goroutines. The
// permutation does not depend on how many there are.
func nestedDissection(g *graph.Graph) []int32 {
	d := newDissector(g)
	d.forks = runtime.GOMAXPROCS(0) - 1
	d.orderSet(0, g.N, 0)
	return d.verts
}

func newDissector(g *graph.Graph) *dissector {
	n := g.N
	d := &dissector{
		g: g, ws: graph.NewWorkspace(n), md: newMinDegreeWorkspace(n),
		verts: identity(n), label: make([]int32, n), next: 1,
		side: make([]int8, n), scratch: make([]int32, n),
	}
	d.md.reserve(g, d.verts)
	return d
}

// orderSet splits verts[lo:hi] (label cur) into its connected components,
// so disconnected pieces don't share separators, and orders each.
func (d *dissector) orderSet(lo, hi int, cur int32) {
	d.next += int32(d.g.Components(d.ws, d.verts[lo:hi], d.label, cur, d.next))
	for lo < hi {
		// A component is a run of one label; ordering it relabels only
		// its own vertices, so the runs after it stay intact.
		c := d.label[d.verts[lo]]
		end := lo + 1
		for end < hi && d.label[d.verts[end]] == c {
			end++
		}
		d.order(lo, end, c)
		lo = end
	}
}

// order orders verts[lo:hi] (label cur, one connected set): first the two
// halves (recursively), then the separator.
//
// While the dissector may fork and both halves reach forkMin, a helper
// orders the first half while d orders the second. Neither half has an
// edge into the other, so each reads only its own vertices and the
// separators of its ancestors, which nothing writes any more, and writes
// only its own vertices and its own range of verts. The separator is left
// where partition put it, after both halves.
func (d *dissector) order(lo, hi int, cur int32) {
	if hi-lo <= ndLeafSize {
		d.md.order(d.g, d.verts[lo:hi], d.label, cur)
		return
	}
	na, nb := d.bisect(d.verts[lo:hi], cur)
	if na == 0 || nb == 0 {
		// Bisection failed to split (e.g. a clique); fall back to MD.
		d.md.order(d.g, d.verts[lo:hi], d.label, cur)
		return
	}
	la, lb := d.partition(d.verts[lo:hi], na, nb)
	if d.forks == 0 || min(na, nb) < forkMin {
		d.orderSet(lo, lo+na, la)
		d.orderSet(lo+na, lo+na+nb, lb)
		return
	}
	h, limit := d.fork(lo, na)
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.orderSet(lo, lo+na, la)
	}()
	d.orderSet(lo+na, lo+na+nb, lb)
	<-done
	if h.next > limit {
		panic("ordering: a helper used more labels than its range was given")
	}
}

// setLabels bounds the labels orderSet hands out on a set of n ≥ 1
// vertices: 4n−3. By induction, with T(m) ≤ 4m−4 for order on m vertices:
// a leaf takes none; a bisection takes 2 plus its halves' 4na−3 and 4nb−3,
// and na+nb ≤ m; a set of k components takes k plus 4c−4 per component of
// c vertices, 4n−3k in all.
func setLabels(n int) int32 { return int32(4*n - 3) }

// fork returns a dissector for the n vertices at verts[lo:lo+n] that runs
// concurrently with d, and the first label it must not reach. It takes the
// next setLabels(n) labels from d, one helper from d's allowance, and half
// of what is left of that allowance; its buffers are sized for its range.
func (d *dissector) fork(lo, n int) (*dissector, int32) {
	hf := (d.forks - 1) / 2
	d.forks -= 1 + hf
	h := &dissector{
		g: d.g, ws: d.ws.Fork(n), md: d.md.fork(d.g, d.verts[lo:lo+n]),
		verts: d.verts, label: d.label, next: d.next,
		side: d.side, scratch: make([]int32, n), forks: hf,
	}
	d.next += setLabels(n)
	return h, d.next
}

// partition reorders vs by the side marks into A | B | separator, each part
// keeping its (ascending) order, and gives A and B fresh labels. The
// separator keeps the old label, which nothing looks for any more.
func (d *dissector) partition(vs []int32, na, nb int) (la, lb int32) {
	la, lb = d.next, d.next+1
	d.next += 2
	ia, ib, is := 0, na, na+nb
	for _, v := range vs {
		switch d.side[v] {
		case sideA:
			d.scratch[ia] = v
			d.label[v] = la
			ia++
		case sideB:
			d.scratch[ib] = v
			d.label[v] = lb
			ib++
		default:
			d.scratch[is] = v
			is++
		}
	}
	copy(vs, d.scratch[:len(vs)])
	return la, lb
}

// bisect marks a vertex separator of the subgraph induced by vs (ascending,
// label cur) in d.side, using a BFS level-structure median cut, then
// minimizes it by discarding separator vertices with no neighbors on one
// side. It returns the sizes of the two sides; vs itself is not touched.
func (d *dissector) bisect(vs []int32, cur int32) (na, nb int) {
	g, side := d.g, d.side
	_, ls := g.PseudoPeripheral(d.ws, vs[0], d.label, cur)
	for _, v := range vs {
		side[v] = sideA
	}
	if ls.Depth() < 3 {
		// Too shallow to cut by levels: greedy half split with the
		// boundary as separator.
		greedyBisect(g, d.ws, vs, d.label, cur, side)
	} else {
		// Choose the level whose cut best balances the halves.
		half := len(ls.Order) / 2
		cut := 1
		bestBal := -1
		for k := 1; k+1 < ls.Depth(); k++ {
			below := int(ls.Levels[k])
			above := len(ls.Order) - int(ls.Levels[k+1])
			bal := min(below, above)
			if bal > bestBal {
				bestBal, cut = bal, k
			}
			if below > half {
				break
			}
		}
		for _, v := range ls.Order[ls.Levels[cut]:ls.Levels[cut+1]] {
			side[v] = sideSep
		}
		for _, v := range ls.Order[ls.Levels[cut+1]:] {
			side[v] = sideB
		}
		refineSeparator(g, vs, d.label, cur, side, 4)
	}
	for _, v := range vs {
		switch side[v] {
		case sideA:
			na++
		case sideB:
			nb++
		}
	}
	return na, nb
}

// refineSeparator runs FM-style passes over a vertex separator of the set
// vs (label cur) encoded in side: a separator vertex with neighbors on at
// most one side leaves the separator (a unit gain); a vertex with exactly
// one neighbor on the opposite side swaps with it (zero immediate gain, but
// the swap often exposes unit gains on the next pass). Balance is respected
// by preferring moves into the smaller side.
func refineSeparator(g *graph.Graph, vs []int32, label []int32, cur int32, side []int8, maxPasses int) {
	sizeA, sizeB := 0, 0
	for _, v := range vs {
		switch side[v] {
		case sideA:
			sizeA++
		case sideB:
			sizeB++
		}
	}
	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for _, v := range vs {
			if side[v] != sideSep {
				continue
			}
			var nA, nB int
			var lone int32 = -1
			for _, w := range g.Neighbors(v) {
				if label[w] != cur {
					continue
				}
				switch side[w] {
				case sideA:
					nA++
				case sideB:
					nB++
					lone = w
				}
			}
			switch {
			case nA == 0 && nB == 0:
				if sizeA <= sizeB {
					side[v] = sideA
					sizeA++
				} else {
					side[v] = sideB
					sizeB++
				}
				improved = true
			case nB == 0:
				side[v] = sideA
				sizeA++
				improved = true
			case nA == 0:
				side[v] = sideB
				sizeB++
				improved = true
			case nB == 1 && sizeA < sizeB:
				// Swap: v joins A, its single B-neighbor covers for it.
				side[v] = sideA
				side[lone] = sideSep
				sizeA++
				sizeB--
				improved = true
			}
		}
		if !improved {
			break
		}
	}
}

// greedyBisect handles shallow graphs: take the first half of a BFS order
// from the smallest vertex as A, the rest as B, and promote A-vertices
// adjacent to B into the separator. side must be sideA on all of vs.
func greedyBisect(g *graph.Graph, ws *graph.Workspace, vs []int32, label []int32, cur int32, side []int8) {
	ls := g.BFS(ws, vs[0], label, cur)
	for _, v := range ls.Order[len(ls.Order)/2:] {
		side[v] = sideB
	}
	for _, v := range vs {
		if side[v] != sideA {
			continue
		}
		for _, w := range g.Neighbors(v) {
			if label[w] == cur && side[w] == sideB {
				side[v] = sideSep
				break
			}
		}
	}
}
