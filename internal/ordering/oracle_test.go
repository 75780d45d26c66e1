package ordering

// The permutation oracle: the ordering code as it stood before the in-place
// rewrite — nested dissection on map-built InducedSubgraph copies, the
// slice-of-slices minimum degree with its stampAbs maps, mask-based
// Components with a shell sort, PseudoPeripheral with an N-long dist per
// call — kept verbatim (names prefixed, graph methods turned into functions)
// so TestOrderingMatchesOracle can hold Compute to it element for element.
// Nothing here is reachable from production code.

import (
	"sort"

	"sympack/internal/graph"
)

type oracleLevels struct {
	Order  []int32
	Levels []int32
}

func (ls *oracleLevels) Depth() int { return len(ls.Levels) - 1 }

func oracleBFS(g *graph.Graph, root int32, mask []bool, dist []int32) *oracleLevels {
	order := make([]int32, 0, 64)
	order = append(order, root)
	dist[root] = 0
	levels := []int32{0}
	head := 0
	curLevel := int32(0)
	for head < len(order) {
		v := order[head]
		if dist[v] > curLevel {
			levels = append(levels, int32(head))
			curLevel = dist[v]
		}
		head++
		for _, w := range g.Neighbors(v) {
			if dist[w] >= 0 {
				continue
			}
			if mask != nil && !mask[w] {
				continue
			}
			dist[w] = dist[v] + 1
			order = append(order, w)
		}
	}
	levels = append(levels, int32(len(order)))
	return &oracleLevels{Order: order, Levels: levels}
}

func oraclePseudoPeripheral(g *graph.Graph, start int32, mask []bool) (int32, *oracleLevels) {
	dist := make([]int32, g.N)
	reset := func(ls *oracleLevels) {
		for _, v := range ls.Order {
			dist[v] = -1
		}
	}
	for i := range dist {
		dist[i] = -1
	}
	root := start
	ls := oracleBFS(g, root, mask, dist)
	for iter := 0; iter < 8; iter++ {
		// Pick a minimum-degree vertex in the last level.
		last := ls.Order[ls.Levels[ls.Depth()-1]:ls.Levels[ls.Depth()]]
		best := last[0]
		for _, v := range last[1:] {
			if g.Degree(v) < g.Degree(best) {
				best = v
			}
		}
		reset(ls)
		ls2 := oracleBFS(g, best, mask, dist)
		if ls2.Depth() <= ls.Depth() {
			return root, ls2
		}
		root, ls = best, ls2
	}
	return root, ls
}

func oracleComponents(g *graph.Graph, mask []bool) [][]int32 {
	seen := make([]bool, g.N)
	var comps [][]int32
	stack := make([]int32, 0, 64)
	for v := 0; v < g.N; v++ {
		if seen[v] || (mask != nil && !mask[v]) {
			continue
		}
		var comp []int32
		stack = append(stack[:0], int32(v))
		seen[v] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, u)
			for _, w := range g.Neighbors(u) {
				if seen[w] || (mask != nil && !mask[w]) {
					continue
				}
				seen[w] = true
				stack = append(stack, w)
			}
		}
		oracleShellSort(comp)
		comps = append(comps, comp)
	}
	return comps
}

func oracleShellSort(a []int32) {
	gaps := []int{701, 301, 132, 57, 23, 10, 4, 1}
	for _, gap := range gaps {
		for i := gap; i < len(a); i++ {
			x := a[i]
			j := i
			for ; j >= gap && a[j-gap] > x; j -= gap {
				a[j] = a[j-gap]
			}
			a[j] = x
		}
	}
}

func oracleInsertionSort(a []int32) {
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

func oracleInducedSubgraph(g *graph.Graph, verts []int32) (*graph.Graph, []int32) {
	local := make(map[int32]int32, len(verts))
	for i, v := range verts {
		local[v] = int32(i)
	}
	sub := &graph.Graph{N: len(verts), Ptr: make([]int32, len(verts)+1)}
	for i, v := range verts {
		cnt := int32(0)
		for _, w := range g.Neighbors(v) {
			if _, ok := local[w]; ok {
				cnt++
			}
		}
		sub.Ptr[i+1] = sub.Ptr[i] + cnt
	}
	sub.Adj = make([]int32, sub.Ptr[len(verts)])
	for i, v := range verts {
		p := sub.Ptr[i]
		for _, w := range g.Neighbors(v) {
			if lw, ok := local[w]; ok {
				sub.Adj[p] = lw
				p++
			}
		}
		oracleInsertionSort(sub.Adj[sub.Ptr[i]:sub.Ptr[i+1]])
	}
	glob := append([]int32(nil), verts...)
	return sub, glob
}

// oracleCompute is Compute as it was.
func oracleCompute(kind Kind, g *graph.Graph) []int32 {
	switch kind {
	case Natural:
		p := make([]int32, g.N)
		for i := range p {
			p[i] = int32(i)
		}
		return p
	case RCM:
		return oracleRCM(g)
	case MinDegree:
		return oracleMinDegree(g)
	default:
		return oracleNestedDissection(g)
	}
}

func oracleRCM(g *graph.Graph) []int32 {
	n := g.N
	perm := make([]int32, 0, n)
	visited := make([]bool, n)
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	for v0 := 0; v0 < n; v0++ {
		if visited[v0] {
			continue
		}
		root, _ := oraclePseudoPeripheral(g, int32(v0), nil)
		start := len(perm)
		perm = append(perm, root)
		visited[root] = true
		for head := start; head < len(perm); head++ {
			v := perm[head]
			nbrs := make([]int32, 0, g.Degree(v))
			for _, w := range g.Neighbors(v) {
				if !visited[w] {
					visited[w] = true
					nbrs = append(nbrs, w)
				}
			}
			sort.Slice(nbrs, func(a, b int) bool { return g.Degree(nbrs[a]) < g.Degree(nbrs[b]) })
			perm = append(perm, nbrs...)
		}
		for i, j := start, len(perm)-1; i < j; i, j = i+1, j-1 {
			perm[i], perm[j] = perm[j], perm[i]
		}
	}
	return perm
}

func oracleMinDegree(g *graph.Graph) []int32 {
	n := g.N
	vadj := make([][]int32, n)
	for v := 0; v < n; v++ {
		vadj[v] = append([]int32(nil), g.Neighbors(int32(v))...)
	}
	eadj := make([][]int32, n)
	elems := make([][]int32, 0)
	eliminated := make([]bool, n)
	degree := make([]int, n)
	for v := 0; v < n; v++ {
		degree[v] = len(vadj[v])
	}
	marker := make([]int32, n)
	for i := range marker {
		marker[i] = -1
	}
	stamp := int32(0)

	h := &oracleDegHeap{}
	for v := 0; v < n; v++ {
		h.push(degree[v], int32(v))
	}

	reach := func(v int32, out []int32) []int32 {
		stamp++
		marker[v] = stamp
		out = out[:0]
		for _, w := range vadj[v] {
			if !eliminated[w] && marker[w] != stamp {
				marker[w] = stamp
				out = append(out, w)
			}
		}
		for _, e := range eadj[v] {
			for _, w := range elems[e] {
				if !eliminated[w] && marker[w] != stamp {
					marker[w] = stamp
					out = append(out, w)
				}
			}
		}
		return out
	}

	perm := make([]int32, 0, n)
	var lp []int32
	for len(perm) < n {
		p := h.popValid(eliminated, degree)
		lp = reach(p, lp)
		eliminated[p] = true
		perm = append(perm, p)
		if len(lp) == 0 {
			continue
		}
		eid := int32(len(elems))
		elems = append(elems, append([]int32(nil), lp...))
		absorbed := eadj[p]
		stampAbs := make(map[int32]bool, len(absorbed))
		for _, e := range absorbed {
			stampAbs[e] = true
		}
		for _, v := range lp {
			ea := eadj[v][:0]
			for _, e := range eadj[v] {
				if !stampAbs[e] {
					ea = append(ea, e)
				}
			}
			eadj[v] = append(ea, eid)
			stamp++
			for _, w := range elems[eid] {
				marker[w] = stamp
			}
			va := vadj[v][:0]
			for _, w := range vadj[v] {
				if !eliminated[w] && marker[w] != stamp {
					va = append(va, w)
				}
			}
			vadj[v] = va
			var tmp []int32
			tmp = reach(v, tmp)
			degree[v] = len(tmp)
			h.push(degree[v], v)
		}
		for _, e := range absorbed {
			elems[e] = nil
		}
	}
	return perm
}

type oracleDegHeap struct {
	deg []int
	v   []int32
}

func (h *oracleDegHeap) push(d int, v int32) {
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

func (h *oracleDegHeap) pop() (int, int32) {
	d, v := h.deg[0], h.v[0]
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

func (h *oracleDegHeap) popValid(eliminated []bool, degree []int) int32 {
	for {
		d, v := h.pop()
		if !eliminated[v] && degree[v] == d {
			return v
		}
	}
}

func oracleNestedDissection(g *graph.Graph) []int32 {
	perm := make([]int32, 0, g.N)
	for _, comp := range oracleComponents(g, nil) {
		perm = oracleNDRecurse(g, comp, perm)
	}
	return perm
}

func oracleNDRecurse(g *graph.Graph, verts []int32, perm []int32) []int32 {
	if len(verts) <= ndLeafSize {
		sub, glob := oracleInducedSubgraph(g, verts)
		for _, lv := range oracleMinDegree(sub) {
			perm = append(perm, glob[lv])
		}
		return perm
	}
	sep, a, b := oracleBisect(g, verts)
	if len(a) == 0 || len(b) == 0 {
		sub, glob := oracleInducedSubgraph(g, verts)
		for _, lv := range oracleMinDegree(sub) {
			perm = append(perm, glob[lv])
		}
		return perm
	}
	perm = oracleNDRecurseSet(g, a, perm)
	perm = oracleNDRecurseSet(g, b, perm)
	perm = append(perm, sep...)
	return perm
}

func oracleNDRecurseSet(g *graph.Graph, verts []int32, perm []int32) []int32 {
	if len(verts) == 0 {
		return perm
	}
	sub, glob := oracleInducedSubgraph(g, verts)
	comps := oracleComponents(sub, nil)
	if len(comps) == 1 {
		return oracleNDRecurse(g, verts, perm)
	}
	for _, c := range comps {
		gl := make([]int32, len(c))
		for i, lv := range c {
			gl[i] = glob[lv]
		}
		perm = oracleNDRecurse(g, gl, perm)
	}
	return perm
}

func oracleBisect(g *graph.Graph, verts []int32) (sep, a, b []int32) {
	sub, glob := oracleInducedSubgraph(g, verts)
	_, ls := oraclePseudoPeripheral(sub, 0, nil)
	if ls.Depth() < 3 {
		return oracleGreedyBisect(sub, glob)
	}
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
	side := make([]int8, sub.N) // 0 = A, 1 = separator candidate, 2 = B
	for k := 0; k < ls.Depth(); k++ {
		var s int8
		switch {
		case k < cut:
			s = 0
		case k == cut:
			s = 1
		default:
			s = 2
		}
		for _, v := range ls.Order[ls.Levels[k]:ls.Levels[k+1]] {
			side[v] = s
		}
	}
	oracleRefineSeparator(sub, side, 4)
	for lv := 0; lv < sub.N; lv++ {
		gv := glob[lv]
		switch side[lv] {
		case 0:
			a = append(a, gv)
		case 1:
			sep = append(sep, gv)
		default:
			b = append(b, gv)
		}
	}
	return sep, a, b
}

func oracleRefineSeparator(sub *graph.Graph, side []int8, maxPasses int) {
	sizeA, sizeB := 0, 0
	for v := 0; v < sub.N; v++ {
		switch side[v] {
		case 0:
			sizeA++
		case 2:
			sizeB++
		}
	}
	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for v := int32(0); int(v) < sub.N; v++ {
			if side[v] != 1 {
				continue
			}
			var nA, nB int
			var lone int32 = -1
			for _, w := range sub.Neighbors(v) {
				switch side[w] {
				case 0:
					nA++
				case 2:
					nB++
					lone = w
				}
			}
			switch {
			case nA == 0 && nB == 0:
				if sizeA <= sizeB {
					side[v] = 0
					sizeA++
				} else {
					side[v] = 2
					sizeB++
				}
				improved = true
			case nB == 0:
				side[v] = 0
				sizeA++
				improved = true
			case nA == 0:
				side[v] = 2
				sizeB++
				improved = true
			case nB == 1 && sizeA < sizeB:
				side[v] = 0
				side[lone] = 1
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

func oracleGreedyBisect(sub *graph.Graph, glob []int32) (sep, a, b []int32) {
	dist := make([]int32, sub.N)
	for i := range dist {
		dist[i] = -1
	}
	ls := oracleBFS(sub, 0, nil, dist)
	half := len(ls.Order) / 2
	side := make([]int8, sub.N)
	for i, v := range ls.Order {
		if i < half {
			side[v] = 0
		} else {
			side[v] = 2
		}
	}
	for v := 0; v < sub.N; v++ {
		if side[v] != 0 {
			continue
		}
		for _, w := range sub.Neighbors(int32(v)) {
			if side[w] == 2 {
				side[v] = 1
				break
			}
		}
	}
	for lv := 0; lv < sub.N; lv++ {
		gv := glob[lv]
		switch side[lv] {
		case 0:
			a = append(a, gv)
		case 1:
			sep = append(sep, gv)
		default:
			b = append(b, gv)
		}
	}
	return sep, a, b
}
