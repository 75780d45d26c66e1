package matrix

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// This file implements the two exchange formats the paper's experiments use
// (AD/AE §A.2.4): Matrix Market (used for the PaStiX runs) and
// Rutherford-Boeing (used for the symPACK runs). Both readers accept
// symmetric real matrices; pattern-only inputs get unit diagonals plus -1/deg
// off-diagonals so they remain SPD-usable in tests.

// ErrFormat reports a malformed input file.
var ErrFormat = errors.New("matrix: malformed file")

// ReadFile reads a matrix from disk, choosing the format by the file name:
// Rutherford-Boeing for ".rb" and that collection's type-code suffixes
// (real or pattern, symmetric or unsymmetric, assembled), Matrix Market for
// everything else.
func ReadFile(path string) (*SparseSym, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	switch filepath.Ext(path) {
	case ".rb", ".rsa", ".rua", ".psa":
		return ReadRutherfordBoeing(fh)
	}
	return ReadMatrixMarket(fh)
}

// ReadMatrixMarket parses a Matrix Market "coordinate real symmetric" (or
// pattern/general-square-symmetric-content) stream into a SparseSym.
func ReadMatrixMarket(r io.Reader) (*SparseSym, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024) // grows with the longest line
	if !sc.Scan() {
		return nil, fmt.Errorf("%w: empty matrix market stream", ErrFormat)
	}
	header := strings.Fields(strings.ToLower(sc.Text()))
	if len(header) < 5 || header[0] != "%%matrixmarket" || header[1] != "matrix" || header[2] != "coordinate" {
		return nil, fmt.Errorf("%w: bad MatrixMarket header", ErrFormat)
	}
	field, sym := header[3], header[4]
	if field != "real" && field != "integer" && field != "pattern" {
		return nil, fmt.Errorf("%w: unsupported field %q", ErrFormat, field)
	}
	if sym != "symmetric" && sym != "general" {
		return nil, fmt.Errorf("%w: unsupported symmetry %q", ErrFormat, sym)
	}
	// Skip comments, read size line.
	var n, m, nnz int
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		if _, err := fmt.Sscan(line, &m, &n, &nnz); err != nil {
			return nil, fmt.Errorf("%w: bad size line %q", ErrFormat, line)
		}
		break
	}
	if !indexable(m) || !indexable(n) || !indexable(nnz) {
		return nil, fmt.Errorf("%w: bad sizes %d×%d with %d entries", ErrFormat, m, n, nnz)
	}
	if m != n {
		return nil, ErrNotSquare
	}
	// An SPD matrix stores every diagonal entry, so a file of fewer
	// entries than columns is refused before anything is sized by n.
	if nnz < n {
		return nil, fmt.Errorf("%w: %d entries cannot hold the diagonal of a %d×%d matrix", ErrFormat, nnz, n, n)
	}
	coo := NewCOO(n)
	count := 0
	for sc.Scan() && count < nnz {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			return nil, fmt.Errorf("%w: bad entry line %q", ErrFormat, line)
		}
		i, err1 := strconv.Atoi(f[0])
		j, err2 := strconv.Atoi(f[1])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("%w: bad indices in %q", ErrFormat, line)
		}
		v := 1.0
		if field != "pattern" {
			if len(f) < 3 {
				return nil, fmt.Errorf("%w: missing value in %q", ErrFormat, line)
			}
			v, err1 = strconv.ParseFloat(f[2], 64)
			if err1 != nil {
				return nil, fmt.Errorf("%w: bad value in %q", ErrFormat, line)
			}
		}
		i, j = i-1, j-1 // 1-based on disk
		if sym == "general" && i < j {
			// Keep only the lower triangle of a general file; the
			// caller asserts the content is symmetric.
			continue
		}
		coo.Add(i, j, v)
		count++
	}
	if count < nnz {
		return nil, fmt.Errorf("%w: expected %d entries, got %d", ErrFormat, nnz, count)
	}
	if count < n {
		// A general file's entries above the diagonal were dropped.
		return nil, fmt.Errorf("%w: %d lower-triangle entries cannot hold the diagonal of a %d×%d matrix", ErrFormat, count, n, n)
	}
	s, err := coo.ToSym()
	if err != nil {
		return nil, err
	}
	if field == "pattern" {
		patternValues(s)
	}
	return s, nil
}

// WriteMatrixMarket writes s in "coordinate real symmetric" form (lower
// triangle, 1-based indices).
func WriteMatrixMarket(w io.Writer, s *SparseSym) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "%%MatrixMarket matrix coordinate real symmetric")
	fmt.Fprintf(bw, "%d %d %d\n", s.N, s.N, s.Nnz())
	for j := 0; j < s.N; j++ {
		for p := s.ColPtr[j]; p < s.ColPtr[j+1]; p++ {
			fmt.Fprintf(bw, "%d %d %.17g\n", s.RowInd[p]+1, j+1, s.Val[p])
		}
	}
	return bw.Flush()
}

// ReadRutherfordBoeing parses a Rutherford-Boeing symmetric assembled real
// ("rsa") or pattern ("psa") matrix. The format is the fixed-record Harwell-
// Boeing descendant: four header lines then column pointers, row indices and
// values as whitespace-separated integers/reals.
func ReadRutherfordBoeing(r io.Reader) (*SparseSym, error) {
	br := bufio.NewReader(r)
	readLine := func() (string, error) {
		line, err := br.ReadString('\n')
		if err != nil && line == "" {
			return "", err
		}
		return strings.TrimRight(line, "\r\n"), nil
	}
	// Line 1: title + key. Line 2: totcrd ptrcrd indcrd valcrd.
	if _, err := readLine(); err != nil {
		return nil, fmt.Errorf("%w: missing RB title", ErrFormat)
	}
	if _, err := readLine(); err != nil {
		return nil, fmt.Errorf("%w: missing RB card counts", ErrFormat)
	}
	l3, err := readLine()
	if err != nil {
		return nil, fmt.Errorf("%w: missing RB type line", ErrFormat)
	}
	f3 := strings.Fields(l3)
	if len(f3) < 4 {
		return nil, fmt.Errorf("%w: bad RB type line %q", ErrFormat, l3)
	}
	mxtype := strings.ToLower(f3[0])
	if len(mxtype) != 3 || (mxtype[1] != 's') || mxtype[2] != 'a' {
		return nil, fmt.Errorf("%w: unsupported RB type %q (want ?sa)", ErrFormat, mxtype)
	}
	pattern := mxtype[0] == 'p'
	nrow, err1 := strconv.Atoi(f3[1])
	ncol, err2 := strconv.Atoi(f3[2])
	nnz, err3 := strconv.Atoi(f3[3])
	if err1 != nil || err2 != nil || err3 != nil {
		return nil, fmt.Errorf("%w: bad RB dimensions %q", ErrFormat, l3)
	}
	if nrow != ncol {
		return nil, ErrNotSquare
	}
	// A symmetric assembled matrix carries at most a full lower triangle,
	// and an SPD one at least its diagonal. Nothing below is sized from
	// the header: the arrays grow as entries are read, so a hostile header
	// costs what its file holds.
	if !indexable(ncol) || !indexable(nnz) || nnz < ncol || int64(nnz) > int64(ncol)*(int64(ncol)+1)/2 {
		return nil, fmt.Errorf("%w: implausible RB sizes n=%d nnz=%d", ErrFormat, ncol, nnz)
	}
	if _, err := readLine(); err != nil { // line 4: formats
		return nil, fmt.Errorf("%w: missing RB format line", ErrFormat)
	}
	// Free-form token scanner over the remainder.
	sc := bufio.NewScanner(br)
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024) // grows with the longest line
	sc.Split(bufio.ScanWords)
	nextInt := func() (int, error) {
		if !sc.Scan() {
			return 0, fmt.Errorf("%w: truncated RB data", ErrFormat)
		}
		return strconv.Atoi(sc.Text())
	}
	nextFloat := func() (float64, error) {
		if !sc.Scan() {
			return 0, fmt.Errorf("%w: truncated RB data", ErrFormat)
		}
		// Fortran D exponents.
		t := strings.ReplaceAll(strings.ReplaceAll(sc.Text(), "D", "E"), "d", "e")
		return strconv.ParseFloat(t, 64)
	}
	var colPtr []int32
	for j := 0; j <= ncol; j++ {
		v, err := nextInt()
		if err != nil {
			return nil, err
		}
		// Pointers are 1-based, start at 1, never decrease and stay
		// within the nnz+1 the header promised.
		if (j == 0 && v != 1) || (j > 0 && v-1 < int(colPtr[j-1])) || v > nnz+1 {
			return nil, fmt.Errorf("%w: bad RB column pointer %d at column %d", ErrFormat, v, j)
		}
		colPtr = append(colPtr, int32(v-1))
	}
	var rowInd []int32
	for k := 0; k < nnz; k++ {
		v, err := nextInt()
		if err != nil {
			return nil, err
		}
		rowInd = append(rowInd, int32(v-1))
	}
	vals := make([]float64, 0, len(rowInd))
	for range rowInd {
		v := 1.0
		if !pattern {
			if v, err = nextFloat(); err != nil {
				return nil, err
			}
		}
		vals = append(vals, v)
	}
	// RB symmetric files store the lower triangle; columns may be unsorted,
	// so route through COO for canonicalization.
	coo := NewCOO(ncol)
	for j := 0; j < ncol; j++ {
		for p := colPtr[j]; p < colPtr[j+1]; p++ {
			coo.Add(int(rowInd[p]), j, vals[p])
		}
	}
	s, err := coo.ToSym()
	if err != nil {
		return nil, err
	}
	if pattern {
		patternValues(s)
	}
	return s, nil
}

// indexable reports whether a dimension fits the int32 index type with
// its n+1 column pointers.
func indexable(n int) bool { return n >= 0 && n < math.MaxInt32 }

// WriteRutherfordBoeing writes s as an "rsa" Rutherford-Boeing file.
func WriteRutherfordBoeing(w io.Writer, s *SparseSym, title string) error {
	bw := bufio.NewWriter(w)
	if title == "" {
		title = "sympack-go matrix"
	}
	nnz := s.Nnz()
	fmt.Fprintf(bw, "%-72s%-8s\n", title, "SYMPACK")
	// Card counts are advisory in this free-form writer; emit plausible ones.
	fmt.Fprintf(bw, "%14d%14d%14d%14d\n", 3, 1, 1, 1)
	fmt.Fprintf(bw, "%3s%14d%14d%14d%14d\n", "rsa", s.N, s.N, nnz, 0)
	fmt.Fprintf(bw, "%-16s%-16s%-20s\n", "(10I8)", "(10I8)", "(3E25.16)")
	for j := 0; j <= s.N; j++ {
		fmt.Fprintf(bw, "%d\n", s.ColPtr[j]+1)
	}
	for _, r := range s.RowInd {
		fmt.Fprintf(bw, "%d\n", r+1)
	}
	for _, v := range s.Val {
		fmt.Fprintf(bw, "%.16E\n", v)
	}
	return bw.Flush()
}

// patternValues fills a structure-only matrix with diagonally dominant
// values: a[i,i] = 1 + deg(i), off-diagonals -1. The result is SPD for any
// connected pattern, letting pattern files drive numeric tests.
func patternValues(s *SparseSym) {
	deg := make([]float64, s.N)
	for j := 0; j < s.N; j++ {
		for p := s.ColPtr[j]; p < s.ColPtr[j+1]; p++ {
			i := int(s.RowInd[p])
			if i != j {
				deg[i]++
				deg[j]++
			}
		}
	}
	for j := 0; j < s.N; j++ {
		for p := s.ColPtr[j]; p < s.ColPtr[j+1]; p++ {
			if int(s.RowInd[p]) == j {
				s.Val[p] = 1 + deg[j]
			} else {
				s.Val[p] = -1
			}
		}
	}
}
