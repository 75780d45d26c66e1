// Package graph provides the undirected-graph machinery consumed by the
// fill-reducing ordering phase: compressed adjacency, breadth-first level
// structures, pseudo-peripheral vertex search and connected components.
//
// Every traversal works on the one CSR graph under a vertex→part label
// array: a vertex belongs to the traversed set when label[v] == cur (a nil
// label array admits every vertex). Nothing is copied or renumbered; the
// transient state of a traversal lives in a Workspace that is reused from
// call to call.
package graph

import "sympack/internal/matrix"

// Graph is an undirected graph in compressed adjacency (CSR) form. Self
// loops are excluded. Neighbor lists are sorted.
type Graph struct {
	N   int
	Ptr []int32
	Adj []int32
}

// FromSparse builds the adjacency graph of a symmetric matrix: vertices are
// rows/columns, edges are off-diagonal nonzeros.
func FromSparse(s *matrix.SparseSym) *Graph {
	n := s.N
	g := &Graph{N: n, Ptr: make([]int32, n+1)}
	for j := 0; j < n; j++ {
		for p := s.ColPtr[j]; p < s.ColPtr[j+1]; p++ {
			if i := int(s.RowInd[p]); i != j {
				g.Ptr[i+1]++
				g.Ptr[j+1]++
			}
		}
	}
	for v := 0; v < n; v++ {
		g.Ptr[v+1] += g.Ptr[v]
	}
	g.Adj = make([]int32, g.Ptr[n])
	pos := make([]int32, n)
	copy(pos, g.Ptr[:n])
	for j := 0; j < n; j++ {
		for p := s.ColPtr[j]; p < s.ColPtr[j+1]; p++ {
			i := int(s.RowInd[p])
			if i != j {
				g.Adj[pos[i]] = int32(j)
				pos[i]++
				g.Adj[pos[j]] = int32(i)
				pos[j]++
			}
		}
	}
	// A column with ascending rows fills every list in ascending order (the
	// columns before v, then the rows of column v), so this pass moves
	// nothing; it is here because every traversal order, and with it the
	// permutation, would otherwise follow the storage order of a matrix that
	// never went through SparseSym.Validate.
	for v := 0; v < n; v++ {
		insertionSort(g.Adj[g.Ptr[v]:g.Ptr[v+1]])
	}
	return g
}

func insertionSort(a []int32) {
	for i := 1; i < len(a); i++ {
		x := a[i]
		j := i - 1
		for j >= 0 && a[j] > x {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = x
	}
}

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int32) int { return int(g.Ptr[v+1] - g.Ptr[v]) }

// Neighbors returns the (sorted) adjacency list of v; the slice aliases the
// graph's storage and must not be modified.
func (g *Graph) Neighbors(v int32) []int32 { return g.Adj[g.Ptr[v]:g.Ptr[v+1]] }

// LabelDegree returns the number of neighbors of v inside the set
// label[w] == cur: the degree of v in the induced subgraph.
func (g *Graph) LabelDegree(v int32, label []int32, cur int32) int {
	if label == nil {
		return g.Degree(v)
	}
	d := 0
	for _, w := range g.Neighbors(v) {
		if label[w] == cur {
			d++
		}
	}
	return d
}

// Workspace is the transient state of the traversals: visit stamps, the BFS
// queue and the level offsets. One workspace serves any number of
// traversals of one graph, one at a time; a traversal resets nothing and
// costs only the vertices and edges it touches.
type Workspace struct {
	mark   []int32 // mark[v] == stamp: v was reached by the current traversal
	stamp  int32
	order  []int32 // BFS queue, DFS stack, bucket scratch; len N
	levels []int32 // level offsets, component sizes; len N+1
}

// NewWorkspace allocates a workspace for graphs of up to n vertices.
func NewWorkspace(n int) *Workspace {
	return &Workspace{mark: make([]int32, n), order: make([]int32, n), levels: make([]int32, n+1)}
}

// Fork returns a workspace for traversals of sets of at most n vertices
// that may run concurrently with ws's. It shares ws's visit stamps and
// continues from ws's current stamp, so every mark a vertex carries stays
// below the stamps either workspace hands out next; the queue and the level
// offsets are its own. A traversal writes the mark of every vertex it
// reaches and reads the marks of their neighbours, so concurrent traversals
// must reach disjoint sets with no edge between them.
func (ws *Workspace) Fork(n int) *Workspace {
	buf := make([]int32, 2*n+1)
	return &Workspace{mark: ws.mark, stamp: ws.stamp, order: buf[:n:n], levels: buf[n:]}
}

// LevelStructure holds a BFS layering rooted at some vertex, restricted to
// the vertices of one labelled set. Its slices are views into the workspace
// that produced it and are overwritten by that workspace's next traversal.
type LevelStructure struct {
	Order  []int32 // vertices in BFS order
	Levels []int32 // Levels[k] = start offset of level k in Order; len = depth+1
}

// Depth returns the number of BFS levels.
func (ls *LevelStructure) Depth() int { return len(ls.Levels) - 1 }

// Width returns the maximum level size.
func (ls *LevelStructure) Width() int {
	w := 0
	for k := 0; k+1 < len(ls.Levels); k++ {
		if sz := int(ls.Levels[k+1] - ls.Levels[k]); sz > w {
			w = sz
		}
	}
	return w
}

// BFS computes the level structure rooted at root over the vertices with
// label[v] == cur (a nil label means all vertices). Neighbors are visited in
// ascending order.
func (g *Graph) BFS(ws *Workspace, root int32, label []int32, cur int32) LevelStructure {
	ws.stamp++
	mark, stamp := ws.mark, ws.stamp
	order, levels := ws.order, ws.levels
	order[0] = root
	mark[root] = stamp
	tail := 1
	nlev := 0
	for head := 0; head < tail; {
		// Everything queued so far and not yet expanded is one level.
		levels[nlev] = int32(head)
		nlev++
		for end := tail; head < end; head++ {
			for _, w := range g.Neighbors(order[head]) {
				if mark[w] == stamp || (label != nil && label[w] != cur) {
					continue
				}
				mark[w] = stamp
				order[tail] = w
				tail++
			}
		}
	}
	levels[nlev] = int32(tail)
	return LevelStructure{Order: order[:tail], Levels: levels[:nlev+1]}
}

// PseudoPeripheral finds a vertex of (approximately) maximal eccentricity in
// the component containing start, using the Gibbs–Poole–Stockmeyer
// iteration: re-root at a minimum-degree vertex of the last level (degree
// within the labelled set, first in BFS order among equals) while that
// deepens the level structure. The level structure it returns is always
// that of the last BFS it ran. When the iteration stops because a candidate
// did not deepen the structure, that is the candidate's, while the vertex
// returned is the root before it — nested dissection cuts the candidate's
// levels, and the permutation is pinned to that.
func (g *Graph) PseudoPeripheral(ws *Workspace, start int32, label []int32, cur int32) (int32, LevelStructure) {
	root := start
	ls := g.BFS(ws, root, label, cur)
	for iter := 0; iter < 8; iter++ {
		depth := ls.Depth()
		last := ls.Order[ls.Levels[depth-1]:ls.Levels[depth]]
		best, bestDeg := last[0], g.LabelDegree(last[0], label, cur)
		for _, v := range last[1:] {
			if d := g.LabelDegree(v, label, cur); d < bestDeg {
				best, bestDeg = v, d
			}
		}
		ls = g.BFS(ws, best, label, cur)
		if ls.Depth() <= depth {
			return root, ls
		}
		root = best
	}
	return root, ls
}

// Components splits verts — ascending, all with label[v] == cur — into the
// connected components of the subgraph they induce. It reorders verts in
// place so that each component is contiguous, components follow each other
// in order of their smallest vertex and each stays ascending, and relabels
// component i (from 0) with next+i, so afterwards the components are the
// runs of equal label in verts. It returns the number of components.
func (g *Graph) Components(ws *Workspace, verts []int32, label []int32, cur, next int32) int {
	stack, size := ws.order, ws.levels
	ncomp := 0
	for _, v := range verts {
		if label[v] != cur {
			continue
		}
		id := next + int32(ncomp)
		label[v] = id
		stack[0] = v
		top, cnt := 1, int32(0)
		for top > 0 {
			top--
			u := stack[top]
			cnt++
			for _, w := range g.Neighbors(u) {
				if label[w] == cur {
					label[w] = id
					stack[top] = w
					top++
				}
			}
		}
		size[ncomp] = cnt
		ncomp++
	}
	if ncomp <= 1 {
		return ncomp
	}
	// Stable bucketing of the ascending range by component keeps every
	// component ascending: no sort.
	off := int32(0)
	for i := 0; i < ncomp; i++ {
		off, size[i] = off+size[i], off
	}
	buf := ws.order[:len(verts)]
	for _, v := range verts {
		c := label[v] - next
		buf[size[c]] = v
		size[c]++
	}
	copy(verts, buf)
	return ncomp
}
