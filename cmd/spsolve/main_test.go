package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"sympack"
)

// directIter is the default solver configuration: the direct
// factorization in double precision.
func directIter() iterConfig {
	return iterConfig{solver: "direct", precision: sympack.PrecFP64, icLevel: 1, rtol: 1e-8}
}

func writeTestMatrix(t *testing.T, dir string) (string, *sympack.Matrix) {
	t.Helper()
	a := sympack.Laplace2D(9, 9)
	path := filepath.Join(dir, "a.mtx")
	fh, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	if err := sympack.WriteMatrixMarket(fh, a); err != nil {
		t.Fatal(err)
	}
	return path, a
}

func readVec(t *testing.T, path string, n int) []float64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []float64
	for _, line := range strings.Fields(string(data)) {
		v, err := strconv.ParseFloat(line, 64)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, v)
	}
	if len(out) != n {
		t.Fatalf("vector length %d, want %d", len(out), n)
	}
	return out
}

func TestSolveEndToEnd(t *testing.T) {
	dir := t.TempDir()
	mat, a := writeTestMatrix(t, dir)
	out := filepath.Join(dir, "x.txt")
	if err := run(mat, "", out, 2, 0, 0, "SCOTCH", sympack.FanOut, sympack.Map2DCyclic, directIter(), false, "", "", "", nil, "", ""); err != nil {
		t.Fatal(err)
	}
	x := readVec(t, out, a.N)
	b := make([]float64, a.N)
	for i := range b {
		b[i] = 1
	}
	if r := sympack.ResidualNorm(a, x, b); r > 1e-10 {
		t.Fatalf("residual %g", r)
	}
}

// TestRunReport drives -report: the document must decode as the shared
// run-report schema and describe the run that wrote it.
func TestRunReport(t *testing.T) {
	dir := t.TempDir()
	mat, a := writeTestMatrix(t, dir)
	report := filepath.Join(dir, "report.json")
	if err := run(mat, "", filepath.Join(dir, "x.txt"), 2, 1, 0, "SCOTCH", sympack.FanOut, sympack.Map2DCyclic, directIter(), false, "", "", "", nil, "", report); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var rep sympack.RunReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not a run report: %v\n%s", err, data)
	}
	if rep.Command != "spsolve" || rep.Matrix != mat || rep.N != a.N || rep.Nnz != int64(a.NnzFull()) {
		t.Errorf("identity: command %q matrix %q n %d nnz %d", rep.Command, rep.Matrix, rep.N, rep.Nnz)
	}
	if rep.Ranks != 2 || rep.Workers != 1 || rep.GPUs != 0 {
		t.Errorf("configuration: ranks %d workers %d gpus %d, want 2 1 0", rep.Ranks, rep.Workers, rep.GPUs)
	}
	if rep.WallSeconds <= 0 || rep.ModelSeconds <= 0 || rep.Timestamp == "" {
		t.Errorf("clocks: wall %g model %g timestamp %q", rep.WallSeconds, rep.ModelSeconds, rep.Timestamp)
	}
	if len(rep.Metrics) == 0 {
		t.Error("report carries no metric series")
	}
}

// TestSolveVariantEndToEnd drives the CLI path under a non-default
// scheduling variant (-formulation fan-both -mapping subtree).
func TestSolveVariantEndToEnd(t *testing.T) {
	dir := t.TempDir()
	mat, a := writeTestMatrix(t, dir)
	out := filepath.Join(dir, "x.txt")
	if err := run(mat, "", out, 2, 0, 0, "SCOTCH", sympack.FanBoth, sympack.MapSubtree, directIter(), false, "", "", "", nil, "", ""); err != nil {
		t.Fatal(err)
	}
	x := readVec(t, out, a.N)
	b := make([]float64, a.N)
	for i := range b {
		b[i] = 1
	}
	if r := sympack.ResidualNorm(a, x, b); r > 1e-10 {
		t.Fatalf("residual %g", r)
	}
}

// TestSolveIterativeEndToEnd drives the CLI's CG and PCG paths: both
// must produce a solution at the direct path's residual bar.
func TestSolveIterativeEndToEnd(t *testing.T) {
	dir := t.TempDir()
	mat, a := writeTestMatrix(t, dir)
	for _, solver := range []string{"cg", "pcg"} {
		out := filepath.Join(dir, "x_"+solver+".txt")
		iter := directIter()
		iter.solver = solver
		iter.rtol = 1e-10
		if err := run(mat, "", out, 2, 0, 0, "SCOTCH", sympack.FanOut, sympack.Map2DCyclic, iter, false, "", "", "", nil, "", ""); err != nil {
			t.Fatalf("%s: %v", solver, err)
		}
		x := readVec(t, out, a.N)
		b := make([]float64, a.N)
		for i := range b {
			b[i] = 1
		}
		if r := sympack.ResidualNorm(a, x, b); r > 1e-8 {
			t.Fatalf("%s residual %g", solver, r)
		}
	}
}

func TestFactorCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	mat, a := writeTestMatrix(t, dir)
	fac := filepath.Join(dir, "a.spkf")
	// Factor-only invocation.
	if err := run(mat, "", "", 2, 0, 0, "SCOTCH", sympack.FanOut, sympack.Map2DCyclic, directIter(), false, fac, "", "", nil, "", ""); err != nil {
		t.Fatal(err)
	}
	// Solve from the cached factor with an explicit rhs.
	rhs := filepath.Join(dir, "b.txt")
	var sb strings.Builder
	for i := 0; i < a.N; i++ {
		sb.WriteString("1.5\n")
	}
	if err := os.WriteFile(rhs, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "x.txt")
	if err := run("", rhs, out, 2, 0, 0, "SCOTCH", sympack.FanOut, sympack.Map2DCyclic, directIter(), false, "", fac, "", nil, "", ""); err != nil {
		t.Fatal(err)
	}
	x := readVec(t, out, a.N)
	b := make([]float64, a.N)
	for i := range b {
		b[i] = 1.5
	}
	if r := sympack.ResidualNorm(a, x, b); r > 1e-10 {
		t.Fatalf("residual %g", r)
	}
}

func TestRefineAndSelinv(t *testing.T) {
	dir := t.TempDir()
	mat, a := writeTestMatrix(t, dir)
	out := filepath.Join(dir, "x.txt")
	diag := filepath.Join(dir, "d.txt")
	if err := run(mat, "", out, 2, 0, 0, "AMD", sympack.FanOut, sympack.Map2DCyclic, directIter(), true, "", "", diag, nil, "", ""); err != nil {
		t.Fatal(err)
	}
	d := readVec(t, diag, a.N)
	for i, v := range d {
		if v <= 0 {
			t.Fatalf("diag(A⁻¹)[%d] = %g, want positive", i, v)
		}
	}
}

func TestRunErrors(t *testing.T) {
	if err := run("", "", "", 2, 0, 0, "SCOTCH", sympack.FanOut, sympack.Map2DCyclic, directIter(), false, "", "", "", nil, "", ""); err == nil {
		t.Fatal("expected error without inputs")
	}
	if err := run("/nonexistent.mtx", "", "", 2, 0, 0, "SCOTCH", sympack.FanOut, sympack.Map2DCyclic, directIter(), false, "", "", "", nil, "", ""); err == nil {
		t.Fatal("expected file error")
	}
	dir := t.TempDir()
	mat, _ := writeTestMatrix(t, dir)
	if err := run(mat, "", "", 2, 0, 0, "BOGUS", sympack.FanOut, sympack.Map2DCyclic, directIter(), false, "", "", "", nil, "", ""); err == nil {
		t.Fatal("expected ordering error")
	}
	// Refinement without the matrix must be refused.
	fac := filepath.Join(dir, "a.spkf")
	if err := run(mat, "", "", 2, 0, 0, "SCOTCH", sympack.FanOut, sympack.Map2DCyclic, directIter(), false, fac, "", "", nil, "", ""); err != nil {
		t.Fatal(err)
	}
	if err := run("", "", filepath.Join(dir, "x.txt"), 2, 0, 0, "SCOTCH", sympack.FanOut, sympack.Map2DCyclic, directIter(), true, "", fac, "", nil, "", ""); err == nil {
		t.Fatal("expected refine-without-matrix error")
	}
}
