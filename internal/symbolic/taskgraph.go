package symbolic

// This file derives the fan-out task graph of paper §3.2 from the block
// partition. Three task kinds operate on single blocks:
//
//	D_k       — POTRF of the diagonal block of supernode k
//	F_{i,k}   — TRSM of off-diagonal block B_{i,k} against L_{k,k}
//	U_{i,j,k} — update of B_{i,k} by blocks B_{i,j} and B_{k,j} of an
//	            earlier supernode j (SYRK when i == k, GEMM otherwise)
//
// with the dependency rules of the paper: D_k waits for all U_{k,·,k};
// F_{i,k} waits for D_k and all U_{i,·,k}; U_{i,j,k} waits for F_{i,j} and
// F_{k,j} (one task when the two source blocks coincide).

// Update describes one U_{i,j,k} task. BlkA is the global index of B_{k,j}
// (the transposed operand whose rows select the target's columns) and BlkB
// that of B_{i,j} (the left operand, i ≥ k); Target is B_{i,k}.
type Update struct {
	SrcSn  int32 // j
	BlkA   int32 // B_{k,j}
	BlkB   int32 // B_{i,j}
	Target int32 // B_{i,k}
}

// IsSyrk reports whether the update is a symmetric rank-k update onto a
// diagonal block (the two source blocks coincide).
func (u *Update) IsSyrk() bool { return u.BlkA == u.BlkB }

// TaskGraph materializes every update task and, per block, the updates
// reading it and the updates into it, shared by the real runtime
// (internal/core) and the performance model (internal/des).
type TaskGraph struct {
	St      *Structure
	Updates []Update

	// UpdatesBySource[b] lists indices into Updates whose BlkA or BlkB is
	// block b (an off-diagonal factorized block). Used to fan a completed
	// F task out to its consumers. An update with BlkA == BlkB appears
	// once.
	UpdatesBySource [][]int32

	// UpdatesByTarget[b] lists, ascending, the indices into Updates whose
	// Target is block b: the canonical order in which the engine applies
	// contributions to b. D (for a diagonal block) and F (for an
	// off-diagonal one, besides its D) wait for all of them.
	UpdatesByTarget [][]int32
}

// BuildTaskGraph enumerates all update tasks: for every supernode j and
// every ordered pair of its off-diagonal blocks (B_{k,j}, B_{i,j}) with
// i ≥ k, emit U_{i,j,k}. The target B_{i,k} exists by the fill closure of
// the supernodal structure (see buildSupernodeRows).
//
// Everything is sized before it is filled: the pair count bounds Updates
// (exactly, unless IC dropped targets), and the per-block lists are carved
// out of one backing array from the per-block counts.
func BuildTaskGraph(st *Structure) *TaskGraph {
	nb := len(st.Blocks)
	pairs := 0
	for j := range st.Snodes {
		off := len(st.SnodeBlocks(int32(j))) - 1
		pairs += off * (off + 1) / 2
	}
	tg := &TaskGraph{
		St:              st,
		Updates:         make([]Update, 0, pairs),
		UpdatesBySource: make([][]int32, nb),
		UpdatesByTarget: make([][]int32, nb),
	}
	bySource := make([]int32, nb) // per-block count of consuming updates
	byTarget := make([]int32, nb) // per-block count of targeting updates
	refs := 0
	for j := range st.Snodes {
		blks := st.SnodeBlocks(int32(j))[1:] // off-diagonal blocks only
		for x := range blks {
			for y := x; y < len(blks); y++ {
				a, b := &blks[x], &blks[y]
				target := st.FindBlock(b.RowSn, a.RowSn)
				if target < 0 {
					if st.Incomplete {
						// IC(k) dropped the target's fill: the contribution
						// is discarded, the defining move of an incomplete
						// factorization.
						continue
					}
					// Structure closure guarantees existence; reaching
					// here means a symbolic bug, better loud than wrong.
					panic("symbolic: missing update target block")
				}
				tg.Updates = append(tg.Updates, Update{
					SrcSn: int32(j), BlkA: a.ID, BlkB: b.ID, Target: target,
				})
				bySource[a.ID]++
				refs++
				if b.ID != a.ID {
					bySource[b.ID]++
					refs++
				}
				byTarget[target]++
			}
		}
	}
	// Carve empty lists of exactly the counted capacity, so the appends
	// below fill the backing array in place and never reallocate.
	backing := make([]int32, refs+len(tg.Updates))
	src, tgt := backing[:refs], backing[refs:]
	for b := 0; b < nb; b++ {
		ns, nt := bySource[b], byTarget[b]
		tg.UpdatesBySource[b], src = src[:0:ns], src[ns:]
		tg.UpdatesByTarget[b], tgt = tgt[:0:nt], tgt[nt:]
	}
	for i := range tg.Updates {
		u, ui := &tg.Updates[i], int32(i)
		tg.UpdatesBySource[u.BlkA] = append(tg.UpdatesBySource[u.BlkA], ui)
		if u.BlkB != u.BlkA {
			tg.UpdatesBySource[u.BlkB] = append(tg.UpdatesBySource[u.BlkB], ui)
		}
		tg.UpdatesByTarget[u.Target] = append(tg.UpdatesByTarget[u.Target], ui)
	}
	return tg
}

// NumTasks returns the total task count: one D per supernode, one F per
// off-diagonal block, one U per update.
func (tg *TaskGraph) NumTasks() int {
	nOff := len(tg.St.Blocks) - len(tg.St.Snodes)
	return len(tg.St.Snodes) + nOff + len(tg.Updates)
}

// BlockMap assigns blocks to processes. The paper's map(i,j) function
// (§3.3) is a 2D block-cyclic distribution; a 1D column distribution is
// provided for comparison (the paper argues 1D creates serial bottlenecks).
type BlockMap interface {
	// Owner returns the process owning block B_{i,k}.
	Owner(i, k int32) int
	// P returns the process count.
	P() int
}

// OwnerOfBlock maps a block value through any BlockMap.
func OwnerOfBlock(m BlockMap, b *Block) int { return m.Owner(b.RowSn, b.Snode) }

// Map2D is the 2D block-cyclic distribution of paper §3.3: block B_{i,k}
// lives on process (i mod Pr, k mod Pc) of a Pr×Pc process grid.
type Map2D struct {
	Pr, Pc int
}

// NewMap2D builds the most-square grid for p processes (Pr·Pc == p with
// Pr ≤ Pc, favoring squareness, as 2D block-cyclic distributions do).
func NewMap2D(p int) Map2D {
	if p < 1 {
		p = 1
	}
	pr := 1
	for d := 1; d*d <= p; d++ {
		if p%d == 0 {
			pr = d
		}
	}
	return Map2D{Pr: pr, Pc: p / pr}
}

// P returns the process count.
func (m Map2D) P() int { return m.Pr * m.Pc }

// Owner returns the process owning block B_{i,k}.
func (m Map2D) Owner(i, k int32) int {
	return int(i)%m.Pr*m.Pc + int(k)%m.Pc
}

// Map1D is the 1D column-cyclic distribution: every block of supernode k
// lives on process k mod P — the layout whose serial bottlenecks the 2D
// map exists to avoid (§3.3).
type Map1D struct {
	NP int
}

// Owner returns the process owning block B_{i,k} (column-determined).
func (m Map1D) Owner(_, k int32) int { return int(k) % m.NP }

// P returns the process count.
func (m Map1D) P() int { return m.NP }
