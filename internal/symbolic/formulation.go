package symbolic

// This file defines the two strategy axes that turn the solver from one
// algorithm into a scheduling laboratory (Jacquelin et al.'s observation
// that the task formulation and the block-to-process mapping are
// independent choices):
//
//   - Formulation decides which block's owner computes each update task
//     U_{i,j,k} — equivalently, who aggregates contributions and what
//     must travel on the wire.
//   - MappingKind decides which process owns each block.
//
// Both the real runtime (internal/core) and the performance model
// (internal/des) consume these, so a variant runs identically in both
// worlds. Every (formulation × mapping) pair must pass the conformance
// harness (internal/core/conformance_test.go) before it may be raced.

import "fmt"

// Formulation selects the task formulation: which block's owner computes
// an update U_{i,j,k} with sources B_{k,j} (BlkA), B_{i,j} (BlkB) and
// target B_{i,k}.
//
//	FanOut  — the target's owner computes. Factored source blocks fan out
//	          from their producers to every consumer (the paper's §3.2).
//	FanIn   — the left operand's owner (owner of B_{i,j}) computes where
//	          the panel was factored; the finished contribution fans in
//	          to the target's owner.
//	FanBoth — the transposed operand's owner (owner of B_{k,j}) computes:
//	          one source block fans out to the compute site and the
//	          contribution fans in to the target — communication in both
//	          directions, the block-level analogue of the fan-both family.
//
// D and F tasks always execute at their block's owner; only update
// placement varies. Contributions are delivered per update, never summed
// in transit, so the target applies them in the canonical order and the
// factor stays bit-identical across formulations, mappings, worker
// counts and rank counts (summed aggregation would trade that
// reproducibility for message volume).
type Formulation uint8

const (
	// FanOut is the paper's formulation (default): updates execute at the
	// target block's owner.
	FanOut Formulation = iota
	// FanIn executes updates at the owner of the left source operand
	// B_{i,j} and ships the contribution to the target.
	FanIn
	// FanBoth executes updates at the owner of the transposed source
	// operand B_{k,j}; sources fan out to it, contributions fan in.
	FanBoth
)

func (f Formulation) String() string {
	switch f {
	case FanIn:
		return "fan-in"
	case FanBoth:
		return "fan-both"
	default:
		return "fan-out"
	}
}

// ParseFormulation reads a CLI spelling of a formulation.
func ParseFormulation(s string) (Formulation, error) {
	switch s {
	case "fanout", "fan-out", "out":
		return FanOut, nil
	case "fanin", "fan-in", "in":
		return FanIn, nil
	case "fanboth", "fan-both", "both":
		return FanBoth, nil
	}
	return FanOut, fmt.Errorf("symbolic: unknown formulation %q (want fan-out|fan-in|fan-both)", s)
}

// ComputeBlock returns the block whose owner computes update u under this
// formulation.
func (f Formulation) ComputeBlock(u *Update) int32 {
	switch f {
	case FanIn:
		return u.BlkB
	case FanBoth:
		return u.BlkA
	default:
		return u.Target
	}
}

// DeliversContributions reports whether updates may execute away from the
// target's owner, so the computed contribution is delivered as a separate
// protocol item with its own apply task at the target. FanOut computes in
// place and applies directly.
func (f Formulation) DeliversContributions() bool { return f != FanOut }

// TaskCount returns the job-wide task count of the formulation's task
// graph: one D/F per block and one compute task per update, plus — when
// contributions are delivered — one apply task per update at the target's
// owner. The engine schedules fewer when it runs small bottom subtrees as
// one task each; it still runs every one of their kernels.
func (f Formulation) TaskCount(tg *TaskGraph) int {
	n := tg.St.NumBlocks() + len(tg.Updates)
	if f.DeliversContributions() {
		n += len(tg.Updates)
	}
	return n
}

// ItemCount returns the number of items the formulation's protocol moves
// between ranks: one per block, plus — when contributions are delivered —
// one per update (item id = block count + update index).
func (f Formulation) ItemCount(tg *TaskGraph) int {
	if f.DeliversContributions() {
		return tg.St.NumBlocks() + len(tg.Updates)
	}
	return tg.St.NumBlocks()
}

// Formulations lists every formulation, in declaration order.
func Formulations() []Formulation { return []Formulation{FanOut, FanIn, FanBoth} }

// MappingKind selects the block→process distribution.
type MappingKind uint8

const (
	// MapSubtree is the proportional subtree-to-subcube mapping (default):
	// each subtree of the supernodal elimination tree gets a process range
	// sized by its share of the factorization work, and a supernode's
	// blocks are dealt round-robin over its subtree's range. Independent
	// subtrees land on disjoint processes, so their schedules never
	// contend.
	MapSubtree MappingKind = iota
	// Map2DCyclic is the paper's 2D block-cyclic distribution (§3.3).
	Map2DCyclic
	// Map1DCols assigns whole supernode columns cyclically — the layout
	// whose serial bottleneck the 2D map exists to avoid.
	Map1DCols
)

func (m MappingKind) String() string {
	switch m {
	case Map2DCyclic:
		return "2d-cyclic"
	case Map1DCols:
		return "1d-cols"
	default:
		return "subtree"
	}
}

// ParseMapping reads a CLI spelling of a mapping kind.
func ParseMapping(s string) (MappingKind, error) {
	switch s {
	case "2d", "2d-cyclic", "cyclic2d":
		return Map2DCyclic, nil
	case "1d", "1d-cols", "cols":
		return Map1DCols, nil
	case "subtree", "proportional":
		return MapSubtree, nil
	}
	return MapSubtree, fmt.Errorf("symbolic: unknown mapping %q (want subtree|2d|1d)", s)
}

// oneRank is every kind's map over one process, built once.
var oneRank BlockMap = Map2D{Pr: 1, Pc: 1}

// NewBlockMap constructs the selected distribution over p processes. Any
// kind but Map2DCyclic and Map1DCols is the subtree map, as String names
// it. The structure is consulted only by the subtree map (which needs the
// supernodal tree and work weights); a nil structure falls back to the 2D
// map so structure-free callers cannot silently build a malformed mapping.
func NewBlockMap(kind MappingKind, p int, st *Structure) BlockMap {
	if p <= 1 {
		return oneRank
	}
	switch {
	case kind == Map1DCols:
		return Map1D{NP: p}
	case kind == Map2DCyclic || st == nil:
		return NewMap2D(p)
	}
	return NewSubtreeMap(st, p)
}

// SubtreeMap is the proportional subtree mapping: supernode k owns the
// contiguous process range [base[k], base[k]+cnt[k]) and block B_{i,k}
// lives on base[k] + i mod cnt[k]. Ranges shrink toward the leaves —
// children split their parent's range proportionally to subtree work —
// which is the classic proportional mapping of sparse Cholesky.
type SubtreeMap struct {
	NP   int
	base []int32
	cnt  []int32
}

// NewSubtreeMap computes the proportional mapping from the supernodal
// elimination tree, weighting each subtree by the stored nonzeros of its
// supernodes (a deterministic integer proxy for factorization work).
func NewSubtreeMap(st *Structure, p int) *SubtreeMap {
	if p < 1 {
		p = 1
	}
	nsn := len(st.Snodes)
	m := &SubtreeMap{NP: p, base: make([]int32, nsn), cnt: make([]int32, nsn)}
	// Per-supernode work weight, then subtree sums.
	sub := make([]int64, nsn)
	for k := 0; k < nsn; k++ {
		nc := int64(st.Snodes[k].NCols())
		blks := st.SnodeBlocks(int32(k))
		for bi := range blks {
			sub[k] += int64(blks[bi].NRows) * nc
		}
		if sub[k] < 1 {
			sub[k] = 1
		}
	}
	st.subtreeSums(sub)
	// The children of each supernode as first-child / next-sibling links,
	// ascending, with the roots under a virtual parent nsn.
	first, next := make([]int32, nsn+1), make([]int32, nsn)
	for q := range first {
		first[q] = -1
	}
	for k := nsn - 1; k >= 0; k-- {
		q := st.SnParent[k]
		if q == -1 {
			q = int32(nsn)
		}
		next[k], first[q] = first[q], int32(k)
	}
	// Proportional range assignment. Children carve contiguous sub-ranges
	// of the parent's range sized by subtree weight, every child at least
	// one process; a forest splits [0, p) the same way under the virtual
	// root. Parents have higher indices than their children, so a
	// descending sweep sets each range before it is split.
	for q := nsn; q >= 0; q-- {
		lo, width := int32(0), int64(p)
		if q < nsn {
			lo, width = m.base[q], int64(m.cnt[q])
		}
		var total int64
		for c := first[q]; c != -1; c = next[c] {
			total += sub[c]
		}
		var acc int64
		for c := first[q]; c != -1; c = next[c] {
			clo := lo + int32(acc*width/total)
			acc += sub[c]
			chi := lo + int32(acc*width/total)
			if chi <= clo {
				chi = clo + 1 // every subtree keeps at least one process
			}
			m.base[c], m.cnt[c] = clo, chi-clo
		}
	}
	return m
}

// Owner returns the process owning block B_{i,k}: round-robin by row
// supernode over supernode k's process range.
func (m *SubtreeMap) Owner(i, k int32) int {
	return int(m.base[k]) + int(i)%int(m.cnt[k])
}

// P returns the process count.
func (m *SubtreeMap) P() int { return m.NP }
