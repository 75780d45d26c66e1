package core

import (
	"fmt"
	"slices"
	"unsafe"

	"sympack/internal/matrix"
	"sympack/internal/symbolic"
)

// Plan is everything a factorization derives from a sparsity pattern: the
// symbolic structure, the task graph, the assembly map from each stored
// entry of the analysed matrix to its supernode position, and the job
// layout of the options that shape it (Ranks, Mapping, Formulation) — the
// block map and each rank's subtree tasks, initial dependency counts, RTQ
// seed, slab and receive-slab layout and lane sizes (DESIGN §9 "Plan").
// Analyze builds one; Factorize reads it and writes none of it, so any
// number of factorizations of the pattern, concurrent ones included, share
// one Plan, as CHOLMOD's analyse-once, factorize-many split does. The one
// part built later, the solve schedule, is built once, behind a sync.Once,
// by the first of its factors' solves that needs it; it lives in an object
// of its own, so a factor keeps the schedule alive but not the plan.
type Plan struct {
	st    *symbolic.Structure
	tg    *symbolic.TaskGraph
	asm   assembly
	lay   *layout
	solve *solveOnce // the solve schedule the plan's factors share
}

// Structure returns the plan's symbolic structure, which callers must not
// modify.
func (p *Plan) Structure() *symbolic.Structure { return p.st }

// newPlan builds the task graph and opt's layout for st and adopts asm.
func newPlan(st *symbolic.Structure, asm assembly, opt Options) *Plan {
	tg := symbolic.BuildTaskGraph(st)
	return &Plan{st: st, tg: tg, asm: asm, lay: newLayout(st, tg, opt), solve: new(solveOnce)}
}

// layoutFor returns the plan's layout when opt's shape is the one it was
// built for, otherwise a layout derived for this call alone: an analysis
// cached for one rank count serves a request for another.
func (p *Plan) layoutFor(opt Options) *layout {
	if l := p.lay; l.ranks == opt.Ranks && l.mapping == opt.Mapping && l.form == opt.Formulation {
		return l
	}
	return newLayout(p.st, p.tg, opt)
}

// Bytes estimates the retained size of the plan: its structure, task
// graph, assembly map and layout. Element arrays are counted, fixed
// per-object overheads are not, and neither is the solve schedule (DESIGN
// "Shared-memory solve" says why).
func (p *Plan) Bytes() int64 {
	st, tg := p.st, p.tg
	b := st.NnzL * 4 // supernode row lists are int32
	b += int64(len(st.Blocks)) * int64(unsafe.Sizeof(symbolic.Block{}))
	b += int64(st.N) * 12 // perm, snof, etree
	b += int64(len(tg.Updates)) * int64(unsafe.Sizeof(symbolic.Update{}))
	for bi := range tg.UpdatesBySource {
		b += 4 * int64(len(tg.UpdatesBySource[bi])+len(tg.UpdatesByTarget[bi]))
	}
	b += 4 * int64(len(p.asm.colPtr)+len(p.asm.pos)+len(p.asm.src))
	return b + p.lay.bytes()
}

// ------------------------------------------------------------ assembly ----

// assembly maps the stored entries of the matrix a factorization takes to
// their places in the structure. The entries are those of the permuted
// matrix, column by column: entry x of permuted column j, one of
// colPtr[j]…colPtr[j+1]-1, lies at row position pos[x] of the row list of
// j's supernode, and its value is the caller's Val[src[x]], or Val[x]
// when src is nil (FactorizeAnalyzed, whose caller passes the permuted
// matrix itself). Assembling through it is a gather per entry: no
// permuted copy of the matrix and no merge of row lists per column.
type assembly struct {
	colPtr []int32
	pos    []int32
	src    []int32
}

// checkShape verifies that a is an n×n lower-CSC matrix with nnz stored
// entries whose column pointers a walk can trust: len N+1, from 0 to nnz,
// never decreasing.
func checkShape(a *matrix.SparseSym, n, nnz int) error {
	if a.N != n || len(a.ColPtr) != n+1 || len(a.RowInd) != nnz || len(a.Val) != nnz {
		return fmt.Errorf("core: matrix is %d×%d with %d stored entries, the structure's pattern %d×%d with %d",
			a.N, a.N, len(a.Val), n, n, nnz)
	}
	if a.ColPtr[0] != 0 || int(a.ColPtr[n]) != nnz {
		return fmt.Errorf("core: matrix column pointers span %d…%d, want 0…%d", a.ColPtr[0], a.ColPtr[n], nnz)
	}
	for j := range n {
		if a.ColPtr[j+1] < a.ColPtr[j] {
			return fmt.Errorf("core: matrix column pointers decrease at column %d", j)
		}
	}
	return nil
}

// identityAssembly maps the permuted matrix pa onto st for a one-shot
// factorization of pa itself: src is nil.
func identityAssembly(st *symbolic.Structure, pa *matrix.SparseSym) (assembly, error) {
	if err := checkShape(pa, st.N, len(pa.Val)); err != nil {
		return assembly{}, err
	}
	asm := assembly{colPtr: pa.ColPtr, pos: slices.Clone(pa.RowInd)}
	return asm, asm.place(st)
}

// analysedAssembly maps the entries of a, the matrix Analyze analysed, onto
// st through pa, a permuted by st.Perm. pa belongs to the caller, which
// gives it up: its row indices become the positions.
func analysedAssembly(st *symbolic.Structure, a, pa *matrix.SparseSym) (assembly, error) {
	asm := assembly{colPtr: pa.ColPtr, pos: pa.RowInd, src: make([]int32, len(pa.RowInd))}
	perm := st.Perm
	for j := range int32(st.N) {
		for x := asm.colPtr[j]; x < asm.colPtr[j+1]; x++ {
			// pa[i,j] is a[perm[i], perm[j]], stored in the lower triangle.
			r, c := perm[asm.pos[x]], perm[j]
			if r < c {
				r, c = c, r
			}
			lo := a.ColPtr[c]
			e, ok := slices.BinarySearch(a.RowInd[lo:a.ColPtr[c+1]], r)
			if !ok {
				return assembly{}, fmt.Errorf("core: the rows of column %d of the matrix are not ascending", c)
			}
			asm.src[x] = lo + int32(e)
		}
	}
	return asm, asm.place(st)
}

// place turns the row indices in asm.pos into positions in their
// supernodes' row lists (relIndex). A row a list lacks is an entry outside
// the structure.
func (asm assembly) place(st *symbolic.Structure) error {
	maxRows := 0
	for k := range st.Snodes {
		maxRows = max(maxRows, st.Snodes[k].NRows())
	}
	pos := make([]int, maxRows)
	for j := range int32(st.N) {
		rows, super := asm.pos[asm.colPtr[j]:asm.colPtr[j+1]], st.Snodes[st.SnOf[j]].Rows
		// Rows ascend, so more of them than super holds cannot all be in it.
		if len(rows) > len(super) || !relIndex(pos, rows, super) {
			return fmt.Errorf("core: an entry of column %d lies outside the symbolic structure", j)
		}
		for x, p := range pos[:len(rows)] {
			rows[x] = int32(p)
		}
	}
	return nil
}

// check verifies that a has the pattern of the matrix the assembly was
// built from, in O(nnz) and without a copy of that pattern: with sane
// column pointers and as many entries, every entry x names the entry
// src[x] of a, and when each of those holds the row, and lies in the
// column, that the position of x stands for, the two patterns are the
// same, because src is one-to-one.
func (asm assembly) check(st *symbolic.Structure, a *matrix.SparseSym) error {
	if err := checkShape(a, st.N, len(asm.pos)); err != nil {
		return fmt.Errorf("%w (the pattern differs from the analysed one)", err)
	}
	perm := st.Perm
	for j := range int32(st.N) {
		rows := st.Snodes[st.SnOf[j]].Rows
		for x := asm.colPtr[j]; x < asm.colPtr[j+1]; x++ {
			r, c := perm[rows[asm.pos[x]]], perm[j]
			if r < c {
				r, c = c, r
			}
			if e := asm.src[x]; a.RowInd[e] != r || e < a.ColPtr[c] || e >= a.ColPtr[c+1] {
				return fmt.Errorf("core: the matrix has no entry (%d,%d), which the analysed pattern has", r, c)
			}
		}
	}
	return nil
}

// -------------------------------------------------------------- layout ----

// layout is the part of a plan the job's shape decides: the block map, the
// subtree tasks and what each rank owns, awaits and starts from.
type layout struct {
	ranks   int
	mapping MappingKind
	form    Formulation
	m2d     symbolic.BlockMap
	// folded marks, by supernode, those a subtree task runs, and trapOff
	// places each one's trapezoid in the arena of the lane that runs its
	// subtree. A supernode folds on the rank owning all of its blocks.
	folded  []bool
	trapOff []int32
	// maxPos is the longest row-position list, a lane's rpos: a
	// supernode's rows bound every such list.
	maxPos int
	rank   []rankLayout
}

// rankLayout is one rank's share of a layout, all of it fixed by the
// pattern, to be copied into the rank's engine by setup.
type rankLayout struct {
	subtrees []symbolic.SubtreeRange // the subtree tasks, ascending
	// blocks lists the owned blocks, ascending: their order in the rank's
	// slab, slabLen elements long. deps[x] is blocks[x]'s initial D/F
	// dependency count: one for the updates targeting it, if any, which
	// the last of them in their canonical order retires (passTurn), plus
	// one for the diagonal for an off-diagonal block; 0 for a folded
	// block, which has no task.
	blocks  []int32
	deps    []int32
	slabLen int
	// updates lists the updates computed here, ascending; each waits for
	// its one (SYRK) or two source blocks.
	updates []int32
	// wanted lists the items the rank's tasks await, ascending; remote is
	// the subsequence other ranks produce, the receive slab's order, of
	// recvLen elements in all.
	wanted  []int32
	remote  []int32
	recvLen int
	// seed is the RTQ at the start: in block order, the owned blocks
	// nothing precedes and each subtree task at its first block.
	seed  []task
	tasks int // tasks the rank runs, a subtree task as one
	// arena and maxW size a lane: the trapezoids of the largest subtree
	// task, and the longest product computed into its buffer.
	arena, maxW int
}

// newLayout derives opt's layout for st and its task graph tg.
func newLayout(st *symbolic.Structure, tg *symbolic.TaskGraph, opt Options) *layout {
	l := &layout{
		ranks: opt.Ranks, mapping: opt.Mapping, form: opt.Formulation,
		m2d:     symbolic.NewBlockMap(opt.Mapping, opt.Ranks, st),
		folded:  make([]bool, len(st.Snodes)),
		trapOff: make([]int32, len(st.Snodes)),
		rank:    make([]rankLayout, opt.Ranks),
	}
	for k := range st.Snodes {
		l.maxPos = max(l.maxPos, st.Snodes[k].NRows())
	}
	owner := make([]int32, len(st.Blocks))
	for bi := range st.Blocks {
		owner[bi] = int32(symbolic.OwnerOfBlock(l.m2d, &st.Blocks[bi]))
	}
	for r := range l.rank {
		l.selectSubtrees(st, r)
	}
	// Count, then fill: each list is allocated once, at its length.
	nBlk, nUpd := make([]int, opt.Ranks), make([]int, opt.Ranks)
	for bi := range st.Blocks {
		nBlk[owner[bi]]++
	}
	for ui := range tg.Updates {
		if u := &tg.Updates[ui]; !l.folded[st.Blocks[u.Target].Snode] {
			nUpd[owner[l.form.ComputeBlock(u)]]++
		}
	}
	for r := range l.rank {
		rl := &l.rank[r]
		rl.blocks, rl.deps = make([]int32, 0, nBlk[r]), make([]int32, 0, nBlk[r])
		rl.updates = make([]int32, 0, nUpd[r])
	}
	for bi := range st.Blocks {
		b := &st.Blocks[bi]
		rl := &l.rank[owner[bi]]
		dep := int32(0)
		if !l.folded[b.Snode] {
			if len(tg.UpdatesByTarget[bi]) > 0 {
				dep = 1
			}
			if !b.IsDiag() {
				dep++
			}
			rl.tasks++
		}
		rl.blocks = append(rl.blocks, int32(bi))
		rl.deps = append(rl.deps, dep)
		m, n := blockDims(st, b)
		rl.slabLen += m * n
	}
	deliver := l.form.DeliversContributions()
	for ui := range tg.Updates {
		u := &tg.Updates[ui]
		if l.folded[st.Blocks[u.Target].Snode] {
			continue
		}
		if deliver {
			l.rank[owner[u.Target]].tasks++ // the apply task
		}
		rl := &l.rank[owner[l.form.ComputeBlock(u)]]
		rl.updates = append(rl.updates, int32(ui))
		rl.tasks++
		if !deliver {
			rl.maxW = max(rl.maxW, contribLen(st, u))
		}
	}
	wanted := make([]bool, l.form.ItemCount(tg))
	for r := range l.rank {
		l.rank[r].finish(l, st, tg, r, owner, wanted)
	}
	return l
}

// selectSubtrees fixes rank r's subtree tasks, marks the supernodes they
// cover and places each one's trapezoid in the lane arena, the subtree's
// supernodes back to back, and sizes what a lane needs to run any of them:
// the arena, and the longest stacked product of a supernode pair
// (updatePair).
func (l *layout) selectSubtrees(st *symbolic.Structure, r int) {
	rl := &l.rank[r]
	rl.subtrees = subtreeTasks(st, l.m2d, r)
	rl.tasks = len(rl.subtrees)
	for _, s := range rl.subtrees {
		off := 0
		for k := s.First; k <= s.Root; k++ {
			l.folded[k] = true
			l.trapOff[k] = int32(off)
			sn := &st.Snodes[k]
			off += sn.NRows() * sn.NCols()
			blks := st.SnodeBlocks(k)
			for i := 1; i < len(blks) && blks[i].RowSn <= s.Root; i++ {
				m := sn.NRows() - int(blks[i].RowOff)
				rl.maxW = max(rl.maxW, m*int(blks[i].NRows))
			}
		}
		rl.arena = max(rl.arena, off)
	}
}

// subtreeTasks returns the subtree tasks of rank under map m: the maximal
// bottom subtrees of the supernodal elimination tree, of at least
// subtreeMin supernodes, whose modeled flop sum to at most subtreeFlop and
// whose blocks rank owns, every one of them. At one rank every small
// subtree qualifies, under MapSubtree the leaves of each rank's range do,
// and under the 2D-cyclic map at several ranks next to nothing does. A
// root of the tree never folds: a tree under the bound keeps its root's
// tasks, so every factorization, however small, still runs its updates
// into the root through the scheduler — dependency counters, the chain of
// updates into each block, helpers — at the cost of one supernode's tasks.
func subtreeTasks(st *symbolic.Structure, m symbolic.BlockMap, rank int) []symbolic.SubtreeRange {
	return st.BottomSubtrees(subtreeFlop, subtreeMin, func(k int32) bool {
		if st.SnParent[k] == -1 {
			return false
		}
		blks := st.SnodeBlocks(k)
		for i := range blks {
			if symbolic.OwnerOfBlock(m, &blks[i]) != rank {
				return false
			}
		}
		return true
	})
}

// finish completes rank r's layout once its blocks and updates are
// distributed: the awaited items (wanted, a scratch mark by item, comes and
// goes all false), the receive slab and the RTQ seed.
func (rl *rankLayout) finish(l *layout, st *symbolic.Structure, tg *symbolic.TaskGraph, r int, owner []int32, wanted []bool) {
	nBlocks := int32(len(st.Blocks))
	nWanted, nRemote, nSeed := 0, 0, len(rl.subtrees)
	want := func(item int32) {
		if !wanted[item] {
			wanted[item] = true
			nWanted++
		}
	}
	for _, bid := range rl.blocks {
		// The panel factorization awaits the supernode's diagonal.
		if b := &st.Blocks[bid]; !l.folded[b.Snode] && !b.IsDiag() {
			want(st.DiagBlock(b.Snode).ID)
		}
	}
	for _, ui := range rl.updates {
		u := &tg.Updates[ui]
		want(u.BlkA)
		want(u.BlkB)
	}
	if l.form.DeliversContributions() {
		// The apply task of an update into an owned block awaits the
		// delivered contribution.
		for ui := range tg.Updates {
			u := &tg.Updates[ui]
			if int(owner[u.Target]) == r && !l.folded[st.Blocks[u.Target].Snode] {
				want(nBlocks + int32(ui))
			}
		}
	}
	rl.wanted = make([]int32, 0, nWanted)
	for item, w := range wanted {
		if w {
			wanted[item] = false
			rl.wanted = append(rl.wanted, int32(item))
			if l.producer(st, tg, int32(item)) != r {
				nRemote++
			}
		}
	}
	rl.remote = make([]int32, 0, nRemote)
	for _, item := range rl.wanted {
		if l.producer(st, tg, item) != r {
			rl.remote = append(rl.remote, item)
			rl.recvLen += itemLen(st, tg, item)
		}
	}
	for x, bid := range rl.blocks {
		if !l.folded[st.Blocks[bid].Snode] && rl.deps[x] == 0 {
			nSeed++
		}
	}
	rl.seed = make([]task, 0, nSeed)
	next := 0 // into rl.subtrees
	for x, bid := range rl.blocks {
		switch b := &st.Blocks[bid]; {
		case l.folded[b.Snode]:
			if next < len(rl.subtrees) && bid == st.BlockPtr[rl.subtrees[next].First] {
				rl.seed = append(rl.seed, task{kind: taskSubtree, id: int32(next)})
				next++
			}
		case rl.deps[x] == 0:
			rl.seed = append(rl.seed, task{kind: taskFor(b), id: bid})
		}
	}
}

// producer returns the rank that produces an item: the owner of a block,
// or — for a contribution — the owner of the update's compute block under
// the layout's formulation.
func (l *layout) producer(st *symbolic.Structure, tg *symbolic.TaskGraph, item int32) int {
	if nb := int32(len(st.Blocks)); item >= nb {
		item = l.form.ComputeBlock(&tg.Updates[item-nb])
	}
	return symbolic.OwnerOfBlock(l.m2d, &st.Blocks[item])
}

// itemLen is the element count of an item: a block's dense storage, or an
// update's contribution.
func itemLen(st *symbolic.Structure, tg *symbolic.TaskGraph, item int32) int {
	if nb := int32(len(st.Blocks)); item >= nb {
		return contribLen(st, &tg.Updates[item-nb])
	}
	m, n := blockDims(st, &st.Blocks[item])
	return m * n
}

// contribLen is the length of update u's mB×nA contribution.
func contribLen(st *symbolic.Structure, u *symbolic.Update) int {
	return int(st.Blocks[u.BlkB].NRows) * int(st.Blocks[u.BlkA].NRows)
}

// bytes estimates the layout's retained size, as Plan.Bytes.
func (l *layout) bytes() int64 {
	b := int64(len(l.folded)) * 5
	for r := range l.rank {
		rl := &l.rank[r]
		b += 4 * int64(len(rl.blocks)+len(rl.deps)+len(rl.updates)+len(rl.wanted)+len(rl.remote))
		b += int64(len(rl.seed)) * int64(unsafe.Sizeof(task{}))
		b += int64(len(rl.subtrees)) * int64(unsafe.Sizeof(symbolic.SubtreeRange{}))
	}
	if _, ok := l.m2d.(*symbolic.SubtreeMap); ok {
		b += 8 * int64(len(l.folded)) // its base and count by supernode
	}
	return b
}
