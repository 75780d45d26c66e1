// Package dataflow is a generic worklist solver over internal/lint/cfg
// graphs: the one fixpoint loop every flow-sensitive analyzer in the
// suite shares, instead of each hand-rolling its own iteration.
//
// An analysis picks a direction, a lattice (join + equality + clone over
// its state type), a boundary state for the entry (forward) or exit
// (backward) block, and a transfer function mapping a block's in-state to
// its out-state. Solve iterates to fixpoint with the textbook optimistic
// worklist scheme: a block's in-state is the join of its processed
// predecessors' out-states, so unvisited predecessors behave as top —
// which makes must-analyses (intersection joins, like lock sets and
// context derivation) converge to the strongest provable answer, and
// may-analyses (union joins) to the weakest sound one. Everything is
// deterministic: blocks are processed in index order and the worklist is
// a FIFO with membership dedup, so diagnostics derived from the solution
// are stable run to run.
package dataflow

import (
	"sympack/internal/lint/cfg"
)

// A Lattice defines the state domain of one analysis over values of type
// T. Join must be commutative, associative and monotone (it is applied at
// control-flow merges); Clone must return a value the caller may mutate
// without aliasing its argument.
type Lattice[T any] interface {
	Join(a, b T) T
	Equal(a, b T) bool
	Clone(a T) T
}

// Direction selects forward (entry→exit) or backward (exit→entry)
// propagation.
type Direction int

const (
	Forward Direction = iota
	Backward
)

// Result holds the fixpoint solution. For Forward, In[b] is the state at
// block entry and Out[b] at block exit; for Backward, In[b] is the state
// at block *exit* (facts flowing in from successors) and Out[b] at block
// entry — i.e. In is always the transfer input, Out its output.
type Result[T any] struct {
	In, Out map[*cfg.Block]T
}

// Solve runs transfer to fixpoint over g's reachable blocks and returns
// the solution. boundary is the in-state of the entry block (Forward) or
// exit block (Backward). transfer receives a private clone of the
// in-state and may mutate it freely. Blocks unreachable in the chosen
// direction are absent from the result; analyzers that must still visit
// dead code handle it separately (it has no incoming facts to merge).
func Solve[T any](g *cfg.Graph, lat Lattice[T], dir Direction, boundary T, transfer func(b *cfg.Block, in T) T) Result[T] {
	res := Result[T]{In: map[*cfg.Block]T{}, Out: map[*cfg.Block]T{}}

	// Flow edges in the chosen direction.
	var start *cfg.Block
	preds := func(b *cfg.Block) []*cfg.Block { return b.Preds }
	succs := func(b *cfg.Block) []*cfg.Block { return b.Succs }
	if dir == Backward {
		start = g.Exit
		preds, succs = succs, preds
	} else {
		start = g.Entry
	}

	// Deterministic FIFO worklist seeded with the reachable blocks in
	// index order, starting from the boundary block.
	inQueue := make([]bool, len(g.Blocks))
	computed := make([]bool, len(g.Blocks))
	var queue []*cfg.Block
	push := func(b *cfg.Block) {
		if !inQueue[b.Index] {
			inQueue[b.Index] = true
			queue = append(queue, b)
		}
	}
	push(start)

	for len(queue) > 0 {
		b := queue[0]
		queue = queue[1:]
		inQueue[b.Index] = false

		var in T
		if b == start {
			in = lat.Clone(boundary)
		} else {
			first := true
			for _, p := range preds(b) {
				if !computed[p.Index] {
					continue // unvisited predecessor: behaves as top
				}
				if first {
					in = lat.Clone(res.Out[p])
					first = false
				} else {
					in = lat.Join(in, res.Out[p])
				}
			}
			if first {
				// No processed predecessor yet (can only happen for the
				// boundary block, handled above, or transiently before a
				// pred is computed); fall back to the boundary state.
				in = lat.Clone(boundary)
			}
		}
		out := transfer(b, lat.Clone(in))
		old, ok := res.Out[b]
		res.In[b] = in
		res.Out[b] = out
		if ok && lat.Equal(old, out) && computed[b.Index] {
			continue
		}
		computed[b.Index] = true
		for _, s := range succs(b) {
			push(s)
		}
	}
	return res
}

// SetLattice is the ready-made lattice over string-keyed sets, the domain
// every current analysis uses (lock identities, context-derived
// variables, taint labels). Union joins express may-analyses,
// intersection joins must-analyses.
type SetLattice struct {
	// Intersect selects must-semantics (join = set intersection);
	// otherwise join is set union.
	Intersect bool
}

// Set is the state type: membership of abstract facts by key.
type Set map[string]bool

func (l SetLattice) Join(a, b Set) Set {
	if l.Intersect {
		out := Set{}
		//lint:ignore nondetflow set intersection: membership-only writes, result independent of visit order
		for k := range a {
			if b[k] {
				out[k] = true
			}
		}
		return out
	}
	out := make(Set, len(a)+len(b))
	//lint:ignore nondetflow set union: membership-only writes, result independent of visit order
	for k := range a {
		out[k] = true
	}
	//lint:ignore nondetflow set union: membership-only writes, result independent of visit order
	for k := range b {
		out[k] = true
	}
	return out
}

func (SetLattice) Equal(a, b Set) bool {
	if len(a) != len(b) {
		return false
	}
	//lint:ignore nondetflow subset test: boolean conjunction over members, order-insensitive
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func (SetLattice) Clone(a Set) Set {
	out := make(Set, len(a))
	//lint:ignore nondetflow set copy: membership-only writes, result independent of visit order
	for k := range a {
		out[k] = true
	}
	return out
}
