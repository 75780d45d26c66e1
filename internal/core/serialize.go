package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"sympack/internal/etree"
	"sympack/internal/symbolic"
)

// Factor serialization: a versioned little-endian binary format carrying
// everything Solve, SolveDistributed and SelectedInverse need — the
// permutation, the supernode partition with its row structures, the block
// layout and the numeric block data. Applications that factor once and
// solve many times across process lifetimes (the PEXSI pattern) persist
// the factor instead of recomputing it.

const (
	factorMagic   = uint32(0x53504b46) // "SPKF"
	factorVersion = uint32(1)
)

// Save writes the factor to w.
func (f *Factor) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	st := f.St
	put := func(vs ...uint64) error {
		for _, v := range vs {
			if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
				return err
			}
		}
		return nil
	}
	if err := put(uint64(factorMagic), uint64(factorVersion), uint64(st.N),
		uint64(len(st.Snodes)), uint64(len(st.Blocks))); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, st.Perm); err != nil {
		return err
	}
	for k := range st.Snodes {
		sn := &st.Snodes[k]
		if err := put(uint64(sn.FirstCol), uint64(sn.LastCol), uint64(len(sn.Rows))); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, sn.Rows); err != nil {
			return err
		}
	}
	for bi := range st.Blocks {
		b := &st.Blocks[bi]
		if err := binary.Write(bw, binary.LittleEndian,
			[4]int32{b.Snode, b.RowSn, b.RowOff, b.NRows}); err != nil {
			return err
		}
	}
	for bid := range f.Data {
		if err := put(uint64(len(f.Data[bid]))); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, f.Data[bid]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// LoadFactor reads a factor previously written by Save. The returned
// factor solves and computes selected inverses; refactorization state
// (Opt, Stats) is reset to defaults.
func LoadFactor(r io.Reader) (*Factor, error) {
	br := bufio.NewReader(r)
	var header [5]uint64
	if err := binary.Read(br, binary.LittleEndian, &header); err != nil {
		return nil, fmt.Errorf("core: factor header: %w", err)
	}
	if uint32(header[0]) != factorMagic {
		return nil, fmt.Errorf("core: not a factor file (magic %x)", header[0])
	}
	if uint32(header[1]) != factorVersion {
		return nil, fmt.Errorf("core: unsupported factor version %d", header[1])
	}
	n := int(header[2])
	nsn := int(header[3])
	nblk := int(header[4])
	// Indices are int32 throughout the format, so anything larger is not a
	// size a valid writer can have produced — reject before allocating.
	const maxDim = int(^uint32(0) >> 1)
	if n < 0 || n > maxDim || nsn < 0 || nsn > n || nblk < nsn || nblk > maxDim {
		return nil, fmt.Errorf("core: corrupt factor sizes n=%d nsn=%d nblk=%d", n, nsn, nblk)
	}
	st := &symbolic.Structure{N: n}
	var err error
	if st.Perm, err = readValues[int32](br, n); err != nil {
		return nil, fmt.Errorf("core: factor perm: %w", err)
	}
	// Perm must be a permutation of 0..n-1: the solve indexes right-hand
	// sides through it unguarded.
	seen := make([]bool, n)
	for i, p := range st.Perm {
		if p < 0 || int(p) >= n || seen[p] {
			return nil, fmt.Errorf("core: factor perm entry %d corrupt (%d)", i, p)
		}
		seen[p] = true
	}
	st.Snodes = make([]symbolic.Supernode, nsn)
	st.SnOf = make([]int32, n)
	for k := 0; k < nsn; k++ {
		var dims [3]uint64
		if err := binary.Read(br, binary.LittleEndian, &dims); err != nil {
			return nil, fmt.Errorf("core: supernode %d: %w", k, err)
		}
		sn := &st.Snodes[k]
		sn.ID = int32(k)
		sn.FirstCol = int32(dims[0])
		sn.LastCol = int32(dims[1])
		if sn.FirstCol < 0 || sn.LastCol < sn.FirstCol || int(sn.LastCol) >= n {
			return nil, fmt.Errorf("core: supernode %d range corrupt", k)
		}
		// A supernode's row list starts with its own columns (so at least
		// NCols entries) and indexes global rows (so at most n entries);
		// anything else would panic the tree rebuild or the solve.
		if dims[2] > uint64(n) || int(dims[2]) < sn.NCols() {
			return nil, fmt.Errorf("core: supernode %d row count %d corrupt", k, dims[2])
		}
		if sn.Rows, err = readValues[int32](br, int(dims[2])); err != nil {
			return nil, fmt.Errorf("core: supernode %d rows: %w", k, err)
		}
		for _, r := range sn.Rows {
			if r < 0 || int(r) >= n {
				return nil, fmt.Errorf("core: supernode %d row %d out of range", k, r)
			}
		}
		for c := sn.FirstCol; c <= sn.LastCol; c++ {
			st.SnOf[c] = int32(k)
		}
	}
	// The blocks grow as they are read, like every array sized by a count
	// in the file.
	st.Blocks = make([]symbolic.Block, 0, min(nblk, readChunk))
	st.BlockPtr = make([]int32, nsn+1)
	prevSn := int32(-1)
	for bi := 0; bi < nblk; bi++ {
		var vals [4]int32
		if err := binary.Read(br, binary.LittleEndian, &vals); err != nil {
			return nil, fmt.Errorf("core: block %d: %w", bi, err)
		}
		st.Blocks = append(st.Blocks, symbolic.Block{ID: int32(bi),
			Snode: vals[0], RowSn: vals[1], RowOff: vals[2], NRows: vals[3]})
		b := &st.Blocks[bi]
		if b.Snode < prevSn || int(b.Snode) >= nsn {
			return nil, fmt.Errorf("core: block %d owner order corrupt", bi)
		}
		// The block's row window must lie inside its supernode's row list
		// (the solve slices Rows[RowOff:RowOff+NRows]) and its row-owner
		// supernode must exist.
		if b.RowSn < 0 || int(b.RowSn) >= nsn || b.RowOff < 0 || b.NRows < 0 ||
			int(b.RowOff)+int(b.NRows) > len(st.Snodes[b.Snode].Rows) {
			return nil, fmt.Errorf("core: block %d extents corrupt", bi)
		}
		// The solve takes a supernode's first block for its full diagonal,
		// so every supernode needs one, starting at its own columns.
		if b.Snode != prevSn {
			if b.Snode != prevSn+1 || b.RowSn != b.Snode || b.RowOff != 0 ||
				int(b.NRows) != st.Snodes[b.Snode].NCols() {
				return nil, fmt.Errorf("core: supernode %d does not start with its diagonal block", prevSn+1)
			}
			st.BlockPtr[b.Snode] = int32(bi)
			prevSn = b.Snode
		}
	}
	if int(prevSn) != nsn-1 {
		return nil, fmt.Errorf("core: supernode %d has no blocks", prevSn+1)
	}
	st.BlockPtr[nsn] = int32(nblk)
	// Rebuild the supernodal tree from the structures.
	st.SnParent = make([]int32, nsn)
	for k := 0; k < nsn; k++ {
		sn := &st.Snodes[k]
		if sn.NRows() == sn.NCols() {
			st.SnParent[k] = -1
		} else {
			st.SnParent[k] = st.SnOf[sn.Rows[sn.NCols()]]
		}
	}
	// A minimal elimination tree placeholder keeps Structure consumers
	// that only need the fields above working; scalar parents are not
	// persisted.
	st.Tree = &etree.Tree{Parent: make([]int32, 0)}
	// The checks above keep every index in range; the solves need the
	// layout a symbolic analysis gives too. Update closure is not checked:
	// an IC(k) factor is saved without its Incomplete mark.
	if err := st.ValidateLayout(); err != nil {
		return nil, fmt.Errorf("core: corrupt factor structure: %w", err)
	}

	f := &Factor{St: st, Opt: Options{}.withDefaults(), Data: make([][]float64, nblk), solve: new(solveOnce)}
	for bid := 0; bid < nblk; bid++ {
		var ln uint64
		if err := binary.Read(br, binary.LittleEndian, &ln); err != nil {
			return nil, fmt.Errorf("core: block %d data length: %w", bid, err)
		}
		b := &st.Blocks[bid]
		want := int(b.NRows) * st.Snodes[b.Snode].NCols()
		if int(ln) != want {
			return nil, fmt.Errorf("core: block %d data length %d, want %d", bid, ln, want)
		}
		if f.Data[bid], err = readValues[float64](br, want); err != nil {
			return nil, fmt.Errorf("core: block %d data: %w", bid, err)
		}
	}
	return f, nil
}

// readChunk is how many values readValues reads at a time.
const readChunk = 1 << 14

// readValues reads n little-endian values. The slice grows as the values
// arrive, so a corrupt count costs no more memory than the input holds.
func readValues[T int32 | float64](r io.Reader, n int) ([]T, error) {
	s := make([]T, 0, min(n, readChunk))
	for len(s) < n {
		m := min(n-len(s), readChunk)
		s = slices.Grow(s, m)
		if err := binary.Read(r, binary.LittleEndian, s[len(s):len(s)+m]); err != nil {
			return nil, err
		}
		s = s[:len(s)+m]
	}
	return s, nil
}
