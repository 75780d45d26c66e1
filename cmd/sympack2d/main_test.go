package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"sympack"
	"sympack/internal/gpu"
)

// parseArgs parses args as the command line does.
func parseArgs(t *testing.T, args ...string) config {
	t.Helper()
	var c config
	fs := flag.NewFlagSet("sympack2d", flag.ContinueOnError)
	register(fs, &c)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return c
}

// runArgs parses args as the command line does and runs them, returning
// what the run printed.
func runArgs(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	err := run(parseArgs(t, args...), &out)
	return out.String(), err
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

// writeRHS writes an n-vector of v with a comment line, returning its path
// and the vector.
func writeRHS(t *testing.T, dir string, n int, v float64) (string, []float64) {
	t.Helper()
	b := make([]float64, n)
	sb := strings.Builder{}
	sb.WriteString("# right-hand side\n")
	for i := range b {
		b[i] = v
		sb.WriteString(strconv.FormatFloat(v, 'g', -1, 64) + "\n")
	}
	path := filepath.Join(dir, "b.txt")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, b
}

func readVec(t *testing.T, path string, n int) []float64 {
	t.Helper()
	v := make([]float64, n)
	if err := readVector(path, v); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestSolveEndToEnd(t *testing.T) {
	dir := t.TempDir()
	mat, a := writeTestMatrix(t, dir)
	rhs, b := writeRHS(t, dir, a.N, 1)
	out := filepath.Join(dir, "x.txt")
	stdout, err := runArgs(t, "-in", mat, "-ranks", "2", "-b", rhs, "-o", out)
	if err != nil {
		t.Fatal(err)
	}
	if r := sympack.ResidualNorm(a, readVec(t, out, a.N), b); r > 1e-10 {
		t.Fatalf("residual %g", r)
	}
	if !strings.Contains(stdout, "relative residual=") {
		t.Fatalf("no residual line:\n%s", stdout)
	}
}

// TestOrderingFlag: -ordering NATURAL factors in the natural order
// (Laplace2D 9×9: nnz(L) 843), not in the default nested dissection (652).
func TestOrderingFlag(t *testing.T) {
	mat, _ := writeTestMatrix(t, t.TempDir())
	for ord, want := range map[string]string{"NATURAL": "nnz(L)=843 ", "SCOTCH": "nnz(L)=652 "} {
		stdout, err := runArgs(t, "-in", mat, "-ordering", ord)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(stdout, want) {
			t.Errorf("-ordering %s: want %q in\n%s", ord, want, stdout)
		}
	}
}

// TestFallbackFlag: -fallback selects the policy it names (TestRunErrors
// rejects a name the policy does not print).
func TestFallbackFlag(t *testing.T) {
	for flagVal, want := range map[string]gpu.FallbackPolicy{"cpu": gpu.FallbackCPU, "error": gpu.FallbackError} {
		opt, err := options(parseArgs(t, "-fallback="+flagVal))
		if err != nil || opt.Fallback != want {
			t.Errorf("-fallback=%s: Fallback %v, %v; want %v", flagVal, opt.Fallback, err, want)
		}
	}
}

// TestRunReport drives -report: the document must decode as the shared
// run-report schema and describe the run that wrote it.
func TestRunReport(t *testing.T) {
	dir := t.TempDir()
	mat, a := writeTestMatrix(t, dir)
	report := filepath.Join(dir, "report.json")
	if _, err := runArgs(t, "-in", mat, "-ranks", "2", "-workers", "1", "-report", report); err != nil {
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
	if rep.Command != "sympack2d" || rep.Matrix != mat || rep.N != a.N || rep.Nnz != int64(a.NnzFull()) {
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

// TestSolveVariantEndToEnd drives the solve path under a non-default
// scheduling variant (-formulation fan-both -mapping subtree).
func TestSolveVariantEndToEnd(t *testing.T) {
	dir := t.TempDir()
	mat, a := writeTestMatrix(t, dir)
	rhs, b := writeRHS(t, dir, a.N, 1)
	out := filepath.Join(dir, "x.txt")
	if _, err := runArgs(t, "-in", mat, "-ranks", "2", "-formulation", "fan-both", "-mapping", "subtree", "-b", rhs, "-o", out); err != nil {
		t.Fatal(err)
	}
	if r := sympack.ResidualNorm(a, readVec(t, out, a.N), b); r > 1e-10 {
		t.Fatalf("residual %g", r)
	}
}

// TestSolveIterativeEndToEnd drives the CG and PCG paths with a file
// right-hand side: both must write a solution at the direct path's bar.
func TestSolveIterativeEndToEnd(t *testing.T) {
	dir := t.TempDir()
	mat, a := writeTestMatrix(t, dir)
	rhs, b := writeRHS(t, dir, a.N, 1)
	for _, solver := range []string{"cg", "pcg"} {
		out := filepath.Join(dir, "x_"+solver+".txt")
		if _, err := runArgs(t, "-in", mat, "-ranks", "2", "-solver", solver, "-rtol", "1e-10", "-b", rhs, "-o", out); err != nil {
			t.Fatalf("%s: %v", solver, err)
		}
		if r := sympack.ResidualNorm(a, readVec(t, out, a.N), b); r > 1e-8 {
			t.Fatalf("%s residual %g", solver, r)
		}
	}
}

// TestFactorCacheRoundTrip saves a factor, loads it without the matrix and
// solves: the solution must be bit-identical to the direct run's at the
// same options. The comparison uses the sequential solve, whose operation
// order is fixed; the distributed sweep adds contributions as they arrive,
// so it is held to a residual instead.
func TestFactorCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	mat, a := writeTestMatrix(t, dir)
	rhs, b := writeRHS(t, dir, a.N, 1.5)
	fac := filepath.Join(dir, "a.spkf")
	direct := filepath.Join(dir, "direct.txt")
	if _, err := runArgs(t, "-in", mat, "-ranks", "2", "-dist-solve=false", "-save-factor", fac, "-b", rhs, "-o", direct); err != nil {
		t.Fatal(err)
	}
	// Factor-only: a loaded factor with nothing to solve ends after saving.
	resaved := filepath.Join(dir, "b.spkf")
	if _, err := runArgs(t, "-load-factor", fac, "-save-factor", resaved); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "x.txt")
	if _, err := runArgs(t, "-load-factor", resaved, "-ranks", "2", "-dist-solve=false", "-b", rhs, "-o", out); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(direct)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("save → load → solve wrote a different solution than the direct run")
	}
	if _, err := runArgs(t, "-load-factor", resaved, "-b", rhs, "-o", out); err != nil {
		t.Fatal(err)
	}
	if r := sympack.ResidualNorm(a, readVec(t, out, a.N), b); r > 1e-10 {
		t.Fatalf("distributed solve of the loaded factor: residual %g", r)
	}
}

func TestRefineAndSelinv(t *testing.T) {
	dir := t.TempDir()
	mat, a := writeTestMatrix(t, dir)
	out := filepath.Join(dir, "x.txt")
	diag := filepath.Join(dir, "d.txt")
	stdout, err := runArgs(t, "-in", mat, "-ranks", "2", "-ordering", "AMD", "-refine", "-o", out, "-selinv-diag", diag)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout, "refinement sweeps") {
		t.Fatalf("no refinement line:\n%s", stdout)
	}
	readVec(t, out, a.N)
	for i, v := range readVec(t, diag, a.N) {
		if v <= 0 {
			t.Fatalf("diag(A⁻¹)[%d] = %g, want positive", i, v)
		}
	}
}

func TestRunErrors(t *testing.T) {
	dir := t.TempDir()
	mat, a := writeTestMatrix(t, dir)
	rhs, _ := writeRHS(t, dir, a.N, 1)
	fac := filepath.Join(dir, "a.spkf")
	if _, err := runArgs(t, "-in", mat, "-ranks", "2", "-save-factor", fac); err != nil {
		t.Fatal(err)
	}
	short := filepath.Join(dir, "short.txt")
	if err := os.WriteFile(short, []byte("1\n2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, args := range map[string][]string{
		"no input":              {},
		"missing file":          {"-in", "/nonexistent.mtx"},
		"bad ordering":          {"-in", mat, "-ordering", "BOGUS"},
		"bad fallback":          {"-in", mat, "-fallback=err"},
		"bad solver":            {"-in", mat, "-solver", "lu"},
		"-b with -nrhs 2":       {"-in", mat, "-b", rhs, "-nrhs", "2"},
		"short rhs":             {"-in", mat, "-b", short},
		"refine without matrix": {"-load-factor", fac, "-b", rhs, "-refine"},
		"cg without matrix":     {"-load-factor", fac, "-b", rhs, "-solver", "cg"},
		"nothing to do":         {"-load-factor", fac},
		"trace of a load":       {"-load-factor", fac, "-b", rhs, "-trace", filepath.Join(dir, "t.json")},
		"flan:0":                {"-gen", "flan:0"},
	} {
		if _, err := runArgs(t, args...); err == nil {
			t.Errorf("%s: expected an error", name)
		}
	}
}

// TestGenTrace drives the -gen path with -trace: a residual line is
// printed and the trace file is valid JSON.
func TestGenTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.json")
	stdout, err := runArgs(t, "-gen", "laplace2d:1", "-ranks", "2", "-trace", path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout, "solve 0: wall=") || !strings.Contains(stdout, "relative residual=") {
		t.Fatalf("no residual line:\n%s", stdout)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(data) {
		t.Fatalf("trace is not valid JSON: %.200s", data)
	}
}

func TestLoadMatrixGenerators(t *testing.T) {
	for _, spec := range []string{"flan:1", "random:1", "flan"} {
		a, name, err := loadMatrix("", spec, 1)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if a.N <= 0 || name != spec {
			t.Fatalf("%s: n=%d name %q", spec, a.N, name)
		}
	}
	if a, _, _ := loadMatrix("", "laplace3d", 1); a.N != 6*6*6 {
		t.Fatalf("laplace3d without a scale: n=%d, want scale 3 (216)", a.N)
	}
}

func TestLoadMatrixErrors(t *testing.T) {
	if _, _, err := loadMatrix("", "", 1); err == nil {
		t.Fatal("expected error with no input")
	}
	if _, _, err := loadMatrix("", "nosuch:2", 1); err == nil {
		t.Fatal("expected unknown generator error")
	}
	if _, _, err := loadMatrix("", "flan:x", 1); err == nil {
		t.Fatal("expected bad scale error")
	}
	if _, _, err := loadMatrix("/nonexistent/file.mtx", "", 1); err == nil {
		t.Fatal("expected file error")
	}
}

func TestLoadMatrixFiles(t *testing.T) {
	dir := t.TempDir()
	a := sympack.Laplace2D(5, 5)

	mm := filepath.Join(dir, "m.mtx")
	fh, err := os.Create(mm)
	if err != nil {
		t.Fatal(err)
	}
	if err := sympack.WriteMatrixMarket(fh, a); err != nil {
		t.Fatal(err)
	}
	fh.Close()
	got, _, err := loadMatrix(mm, "", 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != a.N || got.Nnz() != a.Nnz() {
		t.Fatal("matrix market load mismatch")
	}

	rb := filepath.Join(dir, "m.rb")
	fh, err = os.Create(rb)
	if err != nil {
		t.Fatal(err)
	}
	if err := sympack.WriteRutherfordBoeing(fh, a, "t"); err != nil {
		t.Fatal(err)
	}
	fh.Close()
	got, _, err = loadMatrix(rb, "", 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != a.N || got.Nnz() != a.Nnz() {
		t.Fatal("rutherford-boeing load mismatch")
	}
}

func TestPrintWorkloadSplit(t *testing.T) {
	a := sympack.Laplace2D(8, 8)
	f, err := sympack.Factorize(a, sympack.Options{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	printWorkloadSplit(io.Discard, f) // must not panic with zero GPU counters
}
