// Package etree computes and manipulates elimination trees, the central
// symbolic tool of sparse Cholesky factorization (paper §2.2, Liu [18]).
// The elimination tree of the factor L has an edge (j → parent) where
// parent is the row of the first off-diagonal nonzero in column j of L;
// it encodes all column dependencies of the factorization.
package etree

import "sympack/internal/matrix"

// Tree holds an elimination tree as a parent array: Parent[j] is the parent
// column of j, or -1 for roots.
type Tree struct {
	Parent []int32
}

// N returns the number of vertices.
func (t *Tree) N() int { return len(t.Parent) }

// Compute builds the elimination tree of a symmetric matrix using Liu's
// algorithm with path compression, O(nnz·α(n)).
func Compute(a *matrix.SparseSym) *Tree { return ComputePermuted(a, nil) }

// ComputePermuted builds the elimination tree of P·A·Pᵀ for the new-to-old
// permutation perm (nil for the identity) — the tree Compute returns for
// a.Permute(perm) — straight from a's pattern, without forming the
// permuted matrix. perm must be a permutation of 0..n-1.
func ComputePermuted(a *matrix.SparseSym, perm []int32) *Tree {
	n := a.N
	parent := make([]int32, n)
	ancestor := make([]int32, n)
	for i := range parent {
		parent[i] = -1
		ancestor[i] = -1
	}
	// Liu's algorithm requires visiting rows in ascending order, with all
	// below-diagonal entries of row i available together. Our storage is
	// lower-triangle CSC (entries of row i scattered over columns j < i),
	// so first bucket entries by row: entry (r, c) of A is entry
	// (max(inv[r], inv[c]), min(inv[r], inv[c])) of the permuted lower
	// triangle. The tree does not depend on the order of a row's entries.
	var inv []int32
	if perm != nil {
		inv = make([]int32, n)
		for k, old := range perm {
			inv[old] = int32(k)
		}
	}
	at := func(r, c int32) (int32, int32) {
		if inv != nil {
			r, c = inv[r], inv[c]
		}
		return max(r, c), min(r, c)
	}
	rowPtr := make([]int32, n+1)
	for j := int32(0); int(j) < n; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			if i := a.RowInd[p]; i != j {
				r, _ := at(i, j)
				rowPtr[r+1]++
			}
		}
	}
	for i := 0; i < n; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	rowCols := make([]int32, rowPtr[n])
	pos := append([]int32(nil), rowPtr[:n]...)
	for j := int32(0); int(j) < n; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			if i := a.RowInd[p]; i != j {
				r, c := at(i, j)
				rowCols[pos[r]] = c
				pos[r]++
			}
		}
	}
	for i := int32(0); int(i) < n; i++ {
		for p := rowPtr[i]; p < rowPtr[i+1]; p++ {
			// Walk the compressed ancestor path from j toward i.
			k := rowCols[p]
			for k != -1 && k < i {
				next := ancestor[k]
				ancestor[k] = i
				if next == -1 {
					parent[k] = i
					break
				}
				k = next
			}
		}
	}
	return &Tree{Parent: parent}
}

// ChildLists returns the children of every vertex as first-child /
// next-sibling links: first[v] is the smallest child of v, next[c] the next
// larger child of c's parent, -1 where there is none. Two arrays, whatever
// the shape of the tree.
func (t *Tree) ChildLists() (first, next []int32) {
	n := t.N()
	first, next = make([]int32, n), make([]int32, n)
	for i := range first {
		first[i] = -1
	}
	// Pushing at the head in descending order leaves every list ascending.
	for j := n - 1; j >= 0; j-- {
		next[j] = -1
		if p := t.Parent[j]; p >= 0 {
			next[j] = first[p]
			first[p] = int32(j)
		}
	}
	return first, next
}

// Postorder returns a postorder permutation (new-to-old): vertices are
// renumbered so every child precedes its parent and each subtree is a
// contiguous index range. Children are visited in ascending original order,
// which keeps the permutation stable for already-postordered trees.
func (t *Tree) Postorder() []int32 {
	n := t.N()
	// first doubles as the per-vertex child cursor; the parent links take
	// the place of a stack, so path graphs cost no depth.
	first, next := t.ChildLists()
	post := make([]int32, 0, n)
	for j := 0; j < n; j++ {
		if t.Parent[j] != -1 {
			continue
		}
		for v := int32(j); v != -1; {
			if c := first[v]; c != -1 {
				first[v] = next[c]
				v = c
				continue
			}
			post = append(post, v)
			v = t.Parent[v]
		}
	}
	return post
}

// IsPostordered reports whether parent[j] > j for all non-roots, the
// property guaranteed after permuting a matrix by Postorder().
func (t *Tree) IsPostordered() bool {
	for j, p := range t.Parent {
		if p != -1 && int(p) <= j {
			return false
		}
	}
	return true
}

// Permute relabels the tree under a new-to-old permutation `perm`,
// returning the tree of the permuted matrix. newParent[inv[j]] =
// inv[parent[j]].
func (t *Tree) Permute(perm []int32) *Tree {
	n := t.N()
	inv := make([]int32, n)
	for k, old := range perm {
		inv[old] = int32(k)
	}
	np := make([]int32, n)
	for j := 0; j < n; j++ {
		p := t.Parent[j]
		if p == -1 {
			np[inv[j]] = -1
		} else {
			np[inv[j]] = inv[p]
		}
	}
	return &Tree{Parent: np}
}
