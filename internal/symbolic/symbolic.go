// Package symbolic implements symPACK's symbolic factorization phase
// (paper §3.1): it computes the structure of the Cholesky factor L,
// partitions columns into supernodes, partitions supernodes into dense
// blocks (paper Algorithm 2), builds the supernodal elimination tree, and
// derives the fan-out task graph (§3.2) that the numeric phase executes.
package symbolic

import (
	"errors"
	"fmt"
	"slices"

	"sympack/internal/etree"
	"sympack/internal/matrix"
	"sympack/internal/ordering"
)

// Options tunes the supernode partition.
type Options struct {
	// MaxSupernodeSize splits supernodes wider than this many columns to
	// expose parallelism; 0 means no cap.
	MaxSupernodeSize int
	// RelaxRatio enables supernode amalgamation: a child supernode is
	// merged into a column-contiguous parent when the estimated fraction
	// of explicit zeros introduced stays below this ratio. 0 keeps strict
	// fundamental supernodes.
	RelaxRatio float64
}

// DefaultOptions mirror the paper's practical configuration: modest
// amalgamation to fatten tiny supernodes and a cap that keeps single
// supernodes from serializing the DAG.
func DefaultOptions() Options {
	return Options{MaxSupernodeSize: 128, RelaxRatio: 0.25}
}

// Supernode is a set of contiguous columns of L sharing one row structure
// (paper §2.2). Rows holds the full structure: the supernode's own columns
// first (the dense diagonal block), then the off-diagonal rows in ascending
// order.
type Supernode struct {
	ID       int32
	FirstCol int32 // inclusive
	LastCol  int32 // inclusive
	Rows     []int32
}

// NCols returns the supernode width.
func (s *Supernode) NCols() int { return int(s.LastCol - s.FirstCol + 1) }

// NRows returns the height of the supernode's dense storage.
func (s *Supernode) NRows() int { return len(s.Rows) }

// Block is a dense submatrix of a supernode (paper Algorithm 2): the rows
// of column-supernode Snode that fall inside row-supernode RowSn's column
// range. Block 0 of every supernode is its diagonal block (RowSn == Snode).
type Block struct {
	ID     int32 // global block index
	Snode  int32 // column supernode (k in B_{i,k})
	RowSn  int32 // row supernode (i in B_{i,k})
	RowOff int32 // starting offset in Snode.Rows
	NRows  int32
}

// IsDiag reports whether the block is a diagonal block.
func (b *Block) IsDiag() bool { return b.Snode == b.RowSn }

// Structure is the output of the symbolic phase. All indices refer to the
// permuted matrix returned by Analyze.
type Structure struct {
	N    int
	Perm []int32 // composed new-to-old permutation (ordering ∘ postorder)

	Tree     *etree.Tree // column elimination tree (postordered)
	ColCount []int32     // nnz per column of L (diagonal included), pre-padding

	Snodes []Supernode
	SnOf   []int32 // column → supernode id

	Blocks   []Block // grouped by supernode, diagonal block first
	BlockPtr []int32 // supernode → first index into Blocks; len = #snodes+1

	SnParent []int32 // supernodal elimination tree (parent supernode or -1)

	NnzL       int64 // structural nonzeros of L, explicit-zero padding included
	FactorFlop int64 // flop count of the supernodal factorization

	// Incomplete marks an IC(k) structure (AnalyzeIC): fill above the level
	// limit has been dropped, so the update-closure invariant does not hold
	// and update tasks whose target block was dropped are discarded rather
	// than applied (the standard right-looking incomplete-factorization
	// rule).
	Incomplete bool
}

// NumSupernodes returns the supernode count.
func (s *Structure) NumSupernodes() int { return len(s.Snodes) }

// NumBlocks returns the total block count.
func (s *Structure) NumBlocks() int { return len(s.Blocks) }

// SnodeBlocks returns the blocks of supernode k (diagonal block first).
func (s *Structure) SnodeBlocks(k int32) []Block {
	return s.Blocks[s.BlockPtr[k]:s.BlockPtr[k+1]]
}

// DiagBlock returns the diagonal block of supernode k.
func (s *Structure) DiagBlock(k int32) *Block { return &s.Blocks[s.BlockPtr[k]] }

// FindBlock returns the global index of block B_{rowSn, snode}, or -1 when
// the structure has no such block. Blocks within a supernode are sorted by
// RowSn, so a binary search suffices.
func (s *Structure) FindBlock(rowSn, snode int32) int32 {
	// Hand-written: slices.BinarySearchFunc calls its comparison closure at
	// every step, which made this lookup, run once per block pair by
	// BuildTaskGraph, about four times as costly.
	lo, hi := s.BlockPtr[snode], s.BlockPtr[snode+1]
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case s.Blocks[mid].RowSn < rowSn:
			lo = mid + 1
		case s.Blocks[mid].RowSn > rowSn:
			hi = mid
		default:
			return mid
		}
	}
	return -1
}

// ErrEmptyMatrix is returned for matrices with no columns.
var ErrEmptyMatrix = errors.New("symbolic: empty matrix")

// orderAndPostorder is the prelude Analyze and AnalyzeIC share: the
// fill-reducing ordering, the elimination tree of the ordered matrix and its
// postorder. It returns the postordered matrix, the composed new-to-old
// permutation and the postordered matrix's elimination tree — which is the
// first tree relabelled by the postorder, so it is not computed a second
// time. The first tree comes straight from a's pattern and the ordering,
// so a is permuted once, by the composed permutation: values only move
// under a symmetric permutation, so that is the matrix two permutations in
// turn would give.
func orderAndPostorder(a *matrix.SparseSym, ord ordering.Kind) (*matrix.SparseSym, []int32, *etree.Tree, error) {
	if a.N == 0 {
		return nil, nil, nil, ErrEmptyMatrix
	}
	perm1, err := ordering.Compute(ord, a)
	if err != nil {
		return nil, nil, nil, err
	}
	t1 := etree.ComputePermuted(a, perm1)
	post := t1.Postorder()
	perm := make([]int32, a.N)
	for k := range perm {
		perm[k] = perm1[post[k]]
	}
	a2, err := a.Permute(perm)
	if err != nil {
		return nil, nil, nil, err
	}
	return a2, perm, t1.Permute(post), nil
}

// Analyze runs the complete symbolic phase: fill-reducing ordering,
// elimination tree + postorder, column counts, supernode partition (with
// optional amalgamation and width capping), exact supernodal structure,
// block partitioning, and the supernodal tree. It returns the structure and
// the permuted matrix the numeric phase should factor.
func Analyze(a *matrix.SparseSym, ord ordering.Kind, opt Options) (*Structure, *matrix.SparseSym, error) {
	a2, perm, tree, err := orderAndPostorder(a, ord)
	if err != nil {
		return nil, nil, err
	}
	if !tree.IsPostordered() {
		return nil, nil, errors.New("symbolic: internal: postordered etree expected")
	}

	st := &Structure{N: a.N, Perm: perm, Tree: tree}
	// The matrix is postordered, so the identity is a valid postorder for
	// the skeleton-based count algorithm.
	ident := make([]int32, a.N)
	for i := range ident {
		ident[i] = int32(i)
	}
	st.ColCount = tree.ColCounts(a2, ident)
	nrows := st.buildPartition(opt)
	st.buildSupernodeRows(a2, nrows)
	st.buildBlocks()
	st.buildSnTree()
	st.computeCosts()
	return st, a2, nil
}

// partition is a supernode prototype during partition construction:
// column range plus the (estimated, pre-padding) off-diagonal row count and
// the explicit zeros accumulated by amalgamation so far.
type partition struct {
	fc, lc int32
	off    int32
	zeros  int64
}

// buildPartition derives the final column partition: fundamental supernodes
// from counts and the etree, then amalgamation, then width capping. SnOf is
// filled; Snodes get their column ranges (Rows comes later). It returns the
// total length of the row lists the partition predicts.
func (st *Structure) buildPartition(opt Options) (rows int) {
	n := st.N
	parent := st.Tree.Parent
	// Column j continues the supernode of j-1.
	fund := func(j int) bool {
		return parent[j-1] == int32(j) && st.ColCount[j] == st.ColCount[j-1]-1
	}
	nparts := 1
	for j := 1; j < n; j++ {
		if !fund(j) {
			nparts++
		}
	}
	parts := make([]partition, 0, nparts)
	fc := int32(0)
	for j := 1; j <= n; j++ {
		if j == n || !fund(j) {
			lc := int32(j - 1)
			parts = append(parts, partition{fc: fc, lc: lc, off: st.ColCount[fc] - (lc - fc + 1)})
			fc = int32(j)
		}
	}
	if opt.RelaxRatio > 0 {
		parts = amalgamate(parts, parent, opt.RelaxRatio, opt.MaxSupernodeSize)
	}
	if opt.MaxSupernodeSize > 0 {
		parts = capWidth(parts, opt.MaxSupernodeSize)
	}
	st.Snodes = make([]Supernode, len(parts))
	st.SnOf = make([]int32, n)
	for id, p := range parts {
		st.Snodes[id] = Supernode{ID: int32(id), FirstCol: p.fc, LastCol: p.lc}
		for c := p.fc; c <= p.lc; c++ {
			st.SnOf[c] = int32(id)
		}
		rows += int(p.lc-p.fc+1) + int(p.off)
	}
	return rows
}

// amalgamate greedily merges a supernode into its column successor when the
// successor is its supernodal parent (first off-diagonal row falls inside
// it — implied here by contiguity plus a nonempty off-diagonal) and the
// estimated padding stays below ratio. For a fundamental child whose first
// off-diagonal row lands in the parent, the merged off-diagonal structure
// equals the parent's (Liu's fill lemma), which is what the estimate uses;
// the exact structure is recomputed afterwards, so the estimate only
// affects partition quality, never correctness.
// The ratio bounds the *cumulative* explicit zeros of the merged supernode,
// not just the increment, so chains of merges cannot compound padding
// beyond ratio; the width cap is enforced here too, because splitting an
// over-padded supernode afterwards would keep its padding.
func amalgamate(parts []partition, parent []int32, ratio float64, maxW int) []partition {
	out := make([]partition, 0, len(parts))
	for _, p := range parts {
		out = append(out, p)
		for len(out) >= 2 {
			b := out[len(out)-1]
			a := out[len(out)-2]
			if a.lc+1 != b.fc || a.off == 0 {
				break
			}
			// b must be a's supernodal parent: the etree parent of a's
			// last column (its first off-diagonal row) lands inside b.
			if fp := parent[a.lc]; fp == -1 || fp > b.lc {
				break
			}
			wa := a.lc - a.fc + 1
			wb := b.lc - b.fc + 1
			w := wa + wb
			if maxW > 0 && int(w) > maxW {
				break
			}
			cellsA := int64(wa) * int64(wa+a.off)
			cellsB := int64(wb) * int64(wb+b.off)
			cellsM := int64(w) * int64(w+b.off)
			pad := cellsM - cellsA - cellsB
			if pad < 0 {
				pad = 0
			}
			zeros := a.zeros + b.zeros + pad
			if float64(zeros) > ratio*float64(cellsM) {
				break
			}
			out = out[:len(out)-2]
			out = append(out, partition{fc: a.fc, lc: b.lc, off: b.off, zeros: zeros})
		}
	}
	return out
}

// capWidth splits supernodes wider than maxW columns into near-equal
// chunks. A chunk's off-diagonal rows gain the columns of the chunks that
// follow it (dense by supernodality); the exact structure recomputation
// handles that automatically.
func capWidth(parts []partition, maxW int) []partition {
	nout := 0
	for _, p := range parts {
		nout += (int(p.lc-p.fc) + maxW) / maxW // chunks of p: ⌈w/maxW⌉
	}
	if nout == len(parts) {
		return parts
	}
	out := make([]partition, 0, nout)
	for _, p := range parts {
		w := int(p.lc - p.fc + 1)
		if w <= maxW {
			out = append(out, p)
			continue
		}
		nchunks := (w + maxW - 1) / maxW
		base := w / nchunks
		extra := w % nchunks
		fc := p.fc
		for c := 0; c < nchunks; c++ {
			cw := base
			if c < extra {
				cw++
			}
			lc := fc + int32(cw) - 1
			out = append(out, partition{fc: fc, lc: lc, off: p.off + (p.lc - lc)})
			fc = lc + 1
		}
	}
	return out
}

// buildSupernodeRows computes the exact row structure of every supernode in
// the final partition by bottom-up supernodal symbolic factorization:
//
//	rows(s) = offdiagA(cols of s) ∪ ⋃_{children c} {r ∈ rows(c) : r > lc_s}
//
// where a child is any supernode whose first off-diagonal row lands in s.
// This propagation is exact for the padded partition: every row introduced
// by amalgamation or capping flows into all ancestors that need it, which
// is precisely the closure property the update tasks' target lookup relies
// on.
//
// All row lists live in one slab, in supernode order; a parent reads its
// children's lists where they lie, through first-child / next-sibling links
// over the supernodes. sizeHint is the slab length the partition predicts
// (exact for fundamental and amalgamated supernodes; the slab grows if it
// ever is not). Rows are capacity-clipped views, so an append to one
// reallocates instead of running into the next supernode's rows.
func (st *Structure) buildSupernodeRows(a *matrix.SparseSym, sizeHint int) {
	n := st.N
	nsn := len(st.Snodes)
	slab := make([]int32, 0, sizeHint)
	rowPtr := make([]int32, nsn+1)
	firstChild, nextSib := make([]int32, nsn), make([]int32, nsn)
	for k := range firstChild {
		firstChild[k] = -1
	}
	marker := make([]int32, n)
	for i := range marker {
		marker[i] = -1
	}
	for k := 0; k < nsn; k++ {
		sn := &st.Snodes[k]
		kk := int32(k)
		// Own columns first, then the off-diagonal rows: those of A in this
		// supernode's columns and those its children pass up.
		for c := sn.FirstCol; c <= sn.LastCol; c++ {
			slab = append(slab, c)
		}
		off := len(slab)
		for c := sn.FirstCol; c <= sn.LastCol; c++ {
			for p := a.ColPtr[c]; p < a.ColPtr[c+1]; p++ {
				r := a.RowInd[p]
				if r > sn.LastCol && marker[r] != kk {
					marker[r] = kk
					slab = append(slab, r)
				}
			}
		}
		for c := firstChild[k]; c != -1; c = nextSib[c] {
			for _, r := range slab[rowPtr[c]+int32(st.Snodes[c].NCols()) : rowPtr[c+1]] {
				if r > sn.LastCol && marker[r] != kk {
					marker[r] = kk
					slab = append(slab, r)
				}
			}
		}
		slices.Sort(slab[off:])
		rowPtr[k+1] = int32(len(slab))
		if off < len(slab) {
			p := st.SnOf[slab[off]]
			nextSib[k] = firstChild[p]
			firstChild[p] = kk
		}
	}
	for k := range st.Snodes {
		st.Snodes[k].Rows = slab[rowPtr[k]:rowPtr[k+1]:rowPtr[k+1]]
	}
}

// buildBlocks partitions each supernode's rows into blocks (Algorithm 2):
// the diagonal block first, then one block per distinct row-supernode among
// the off-diagonal rows. Rows are sorted and supernodes own contiguous
// column ranges, so each block is a contiguous run.
func (st *Structure) buildBlocks() {
	nsn := len(st.Snodes)
	st.BlockPtr = make([]int32, nsn+1)
	// Count: the diagonal block, then one block wherever the row supernode
	// changes among the off-diagonal rows.
	nblk := int32(0)
	for k := 0; k < nsn; k++ {
		sn := &st.Snodes[k]
		st.BlockPtr[k] = nblk
		nblk++
		prev := int32(k)
		for _, r := range sn.Rows[sn.NCols():] {
			if rsn := st.SnOf[r]; rsn != prev {
				nblk++
				prev = rsn
			}
		}
	}
	st.BlockPtr[nsn] = nblk
	blocks := make([]Block, 0, nblk)
	for k := 0; k < nsn; k++ {
		sn := &st.Snodes[k]
		nc := int32(sn.NCols())
		blocks = append(blocks, Block{
			ID: int32(len(blocks)), Snode: int32(k), RowSn: int32(k),
			RowOff: 0, NRows: nc,
		})
		off := nc
		for off < int32(len(sn.Rows)) {
			rsn := st.SnOf[sn.Rows[off]]
			start := off
			for off < int32(len(sn.Rows)) && st.SnOf[sn.Rows[off]] == rsn {
				off++
			}
			blocks = append(blocks, Block{
				ID: int32(len(blocks)), Snode: int32(k), RowSn: rsn,
				RowOff: start, NRows: off - start,
			})
		}
	}
	st.Blocks = blocks
}

// buildSnTree derives the supernodal elimination tree: the parent of
// supernode s is the supernode containing the first off-diagonal row of s.
func (st *Structure) buildSnTree() {
	nsn := len(st.Snodes)
	st.SnParent = make([]int32, nsn)
	for k := 0; k < nsn; k++ {
		sn := &st.Snodes[k]
		if sn.NRows() == sn.NCols() {
			st.SnParent[k] = -1
			continue
		}
		st.SnParent[k] = st.SnOf[sn.Rows[sn.NCols()]]
	}
}

// computeCosts fills NnzL and FactorFlop from the supernode partition
// (explicit padding included, mirroring what the numeric phase stores and
// computes).
func (st *Structure) computeCosts() {
	var nnz, flop int64
	for k := range st.Snodes {
		sn := &st.Snodes[k]
		nc := int64(sn.NCols())
		below := int64(sn.NRows()) - nc
		// Dense trapezoid: triangle + rectangle.
		nnz += nc*(nc+1)/2 + below*nc
		flop += sn.Flop()
	}
	st.NnzL = nnz
	st.FactorFlop = flop
}

// Flop is the supernode's share of FactorFlop: POTRF of the diagonal, TRSM
// of the panel and the outer-product updates it sends to its ancestors.
func (sn *Supernode) Flop() int64 {
	nc := int64(sn.NCols())
	below := int64(sn.NRows()) - nc
	return nc*nc*nc/3 + below*nc*nc + below*below*nc
}

// subtreeSums turns per-supernode weights into subtree totals in place:
// afterwards w[k] is the sum of the weights of supernode k and all its
// descendants. Supernodal parents have higher indices, so one ascending
// sweep accumulates each child into its parent after the child's own
// subtree is complete.
func (st *Structure) subtreeSums(w []int64) {
	for k, par := range st.SnParent {
		if par != -1 {
			w[par] += w[k]
		}
	}
}

// SubtreeRange is a closed subtree of the supernodal elimination tree: the
// supernodes First..Root, which are Root and all of its descendants.
type SubtreeRange struct{ First, Root int32 }

// BottomSubtrees returns, ascending, the maximal subtrees of the supernodal
// elimination tree whose supernodes all pass keep and whose shares of
// FactorFlop sum to at most maxFlop, leaving out those of fewer than
// minSnodes supernodes.
//
// A subtree is a contiguous range because a complete structure's
// supernodes are postordered, and it is closed under updates: every update
// into a block of supernode k comes from a descendant of k, so a bottom
// subtree receives nothing from outside. Incomplete structures give no
// ranges — the fill IC(k) drops breaks both properties.
func (st *Structure) BottomSubtrees(maxFlop int64, minSnodes int32, keep func(k int32) bool) []SubtreeRange {
	if st.Incomplete {
		return nil
	}
	// A supernode keep rejects weighs more than maxFlop alone, so no
	// subtree holding it qualifies.
	w := make([]int64, len(st.Snodes))
	for k := range st.Snodes {
		w[k] = maxFlop + 1
		if keep(int32(k)) {
			w[k] = st.Snodes[k].Flop()
		}
	}
	st.subtreeSums(w)
	var out []SubtreeRange
	for k, par := range st.SnParent {
		if w[k] > maxFlop || (par != -1 && w[par] <= maxFlop) {
			continue // too heavy, or inside a larger qualifying subtree
		}
		// In postorder the descendants of k are the supernodes just below
		// it whose parents lie in (j, k].
		first := int32(k)
		for first > 0 && st.SnParent[first-1] != -1 && st.SnParent[first-1] <= int32(k) {
			first--
		}
		if int32(k)-first+1 >= minSnodes {
			out = append(out, SubtreeRange{First: first, Root: int32(k)})
		}
	}
	return out
}

// Validate checks the structural invariants the numeric phase depends on:
// those of ValidateLayout and the closure of the blocks under updates.
func (st *Structure) Validate() error {
	if err := st.ValidateLayout(); err != nil {
		return err
	}
	// Update-closure: for every supernode j and every pair of off-diagonal
	// blocks (B_{k,j}, B_{i,j}) with i ≥ k, the target B_{i,k} must exist.
	// Incomplete structures drop fill, so closure is exactly the invariant
	// they give up; their dropped-target updates are skipped at task-graph
	// construction instead.
	if st.Incomplete {
		return nil
	}
	for j := range st.Snodes {
		blks := st.SnodeBlocks(int32(j))[1:]
		for x := range blks {
			for y := x; y < len(blks); y++ {
				k, i := blks[x].RowSn, blks[y].RowSn
				if st.FindBlock(i, k) < 0 {
					return fmt.Errorf("symbolic: missing update target B[%d,%d] for source supernode %d", i, k, j)
				}
			}
		}
	}
	return nil
}

// ValidateLayout checks the invariants a solve depends on: the permutation,
// supernodes tiling the columns in order, each supernode's rows, blocks
// tiling each supernode's rows in ascending row supernode with the
// diagonal block first, and every supernode's parent after it. It leaves
// out the closure check, so an IC(k) factor read back without its
// Incomplete mark passes.
func (st *Structure) ValidateLayout() error {
	n := st.N
	if err := ordering.Validate(st.Perm, n); err != nil {
		return err
	}
	// Supernodes tile [0,n) contiguously and in order.
	next := int32(0)
	for k := range st.Snodes {
		sn := &st.Snodes[k]
		if sn.FirstCol != next {
			return fmt.Errorf("symbolic: supernode %d starts at %d, want %d", k, sn.FirstCol, next)
		}
		if sn.LastCol < sn.FirstCol {
			return fmt.Errorf("symbolic: supernode %d empty", k)
		}
		next = sn.LastCol + 1
		for c := 0; c < sn.NCols(); c++ {
			if sn.Rows[c] != sn.FirstCol+int32(c) {
				return fmt.Errorf("symbolic: supernode %d diagonal rows corrupt", k)
			}
		}
		prev := sn.LastCol
		for _, r := range sn.Rows[sn.NCols():] {
			if r <= prev || r >= int32(n) {
				return fmt.Errorf("symbolic: supernode %d off-diag rows not increasing", k)
			}
			prev = r
		}
		for c := sn.FirstCol; c <= sn.LastCol; c++ {
			if st.SnOf[c] != int32(k) {
				return fmt.Errorf("symbolic: SnOf[%d] != %d", c, k)
			}
		}
	}
	if next != int32(n) {
		return fmt.Errorf("symbolic: supernodes cover %d of %d columns", next, n)
	}
	// Blocks tile each supernode's rows, diagonal block first, RowSn
	// ascending.
	for k := range st.Snodes {
		sn := &st.Snodes[k]
		blks := st.SnodeBlocks(int32(k))
		if len(blks) == 0 || !blks[0].IsDiag() {
			return fmt.Errorf("symbolic: supernode %d missing diagonal block", k)
		}
		off := int32(0)
		prevSn := int32(-1)
		for bi := range blks {
			b := &blks[bi]
			if b.Snode != int32(k) {
				return fmt.Errorf("symbolic: block %d wrong owner", b.ID)
			}
			if b.RowOff != off {
				return fmt.Errorf("symbolic: block %d offset %d, want %d", b.ID, b.RowOff, off)
			}
			if b.RowSn <= prevSn {
				return fmt.Errorf("symbolic: block %d RowSn not increasing", b.ID)
			}
			prevSn = b.RowSn
			for r := b.RowOff; r < b.RowOff+b.NRows; r++ {
				if st.SnOf[sn.Rows[r]] != b.RowSn {
					return fmt.Errorf("symbolic: block %d contains foreign row", b.ID)
				}
			}
			off += b.NRows
		}
		if int(off) != sn.NRows() {
			return fmt.Errorf("symbolic: supernode %d blocks cover %d of %d rows", k, off, sn.NRows())
		}
	}
	// Supernodal tree is topological.
	for k, p := range st.SnParent {
		if p != -1 && p <= int32(k) {
			return fmt.Errorf("symbolic: snode parent %d ≤ %d", p, k)
		}
	}
	return nil
}
