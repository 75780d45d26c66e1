package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// scratchModule writes a tiny sympack-named module with three findings:
// an unsuppressed wallclock read, a suppressed one, and a stale
// //lint:ignore that trips unusedignore. Deterministic input for the
// -json schema tests.
func scratchModule(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		p := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(p), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module sympack\n\ngo 1.22\n")
	write("internal/core/bad.go", `package core

import "time"

// The raw clock read the wallclock analyzer exists to stop.
var epoch = time.Now()

func human() time.Time {
	//lint:ignore wallclock operator-facing timestamp, never schedules work
	return time.Now()
}

func fixedAlready() int {
	//lint:ignore wallclock stale: the clock read below was removed
	return 1
}
`)
	return root
}

// chdir moves the test into dir and back to the original working
// directory when it ends.
func chdir(t *testing.T, dir string) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(old); err != nil {
			t.Fatal(err)
		}
	})
}

// capture runs f with os.Stdout redirected to a pipe and returns what it
// printed alongside its return code.
func capture(t *testing.T, f func() int) (string, int) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string, 1)
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, r)
		done <- buf.String()
	}()
	rc := f()
	w.Close()
	os.Stdout = old
	return <-done, rc
}

// TestJSONGolden pins the -json wire schema (one object per line: file,
// line, analyzer, message, suppressed, plus note only when set) against a
// committed golden file, so downstream tooling can depend on it. Paths
// are module-root-relative, so the golden needs no normalization — and
// the rooted temp module proves no absolute path leaks into the report.
func TestJSONGolden(t *testing.T) {
	root := scratchModule(t)
	chdir(t, root)
	out, rc := capture(t, func() int { return run([]string{"-json", "./..."}) })
	if rc != 2 {
		t.Fatalf("exit code = %d, want 2 (unsuppressed findings present)", rc)
	}
	if strings.Contains(out, root) {
		t.Errorf("-json output embeds the absolute module root %q:\n%s", root, out)
	}
	normalized := out
	golden := filepath.Join(testdataDir(t), "json.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(normalized), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if normalized != string(want) {
		t.Errorf("-json output drifted from golden:\n--- got ---\n%s--- want ---\n%s", normalized, want)
	}

	// Schema pin independent of the golden bytes: every line is an object
	// with exactly the documented fields, required ones always present.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		var obj map[string]interface{}
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("line %q is not a JSON object: %v", line, err)
		}
		for _, k := range []string{"file", "line", "analyzer", "message", "suppressed"} {
			if _, ok := obj[k]; !ok {
				t.Errorf("line %q missing required key %q", line, k)
			}
		}
		for k := range obj {
			switch k {
			case "file", "line", "analyzer", "message", "suppressed", "note":
			default:
				t.Errorf("line %q has undocumented key %q", line, k)
			}
		}
	}
}

// TestJSONPathsRepoRelative runs -json from a subdirectory of a rooted
// temp module: file paths must stay module-root-relative and
// slash-separated (not cwd-relative, not absolute), the portability
// contract archived CI reports rely on.
func TestJSONPathsRepoRelative(t *testing.T) {
	root := scratchModule(t)
	chdir(t, filepath.Join(root, "internal", "core"))
	out, rc := capture(t, func() int { return run([]string{"-json", "./..."}) })
	if rc != 2 {
		t.Fatalf("exit code = %d, want 2; out=%s", rc, out)
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		var jd jsonDiagnostic
		if err := json.Unmarshal([]byte(line), &jd); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		if jd.File != "internal/core/bad.go" {
			t.Errorf("file = %q, want module-root-relative slash path %q", jd.File, "internal/core/bad.go")
		}
	}
}

// pkgDir is the package source directory, captured before any chdir
// moves the test into another module; testdata lives under it.
var pkgDir string

func TestMain(m *testing.M) {
	if wd, err := os.Getwd(); err == nil {
		pkgDir = wd
	}
	os.Exit(m.Run())
}

func testdataDir(t *testing.T) string {
	t.Helper()
	if pkgDir == "" {
		t.Fatal("package dir not captured")
	}
	return filepath.Join(pkgDir, "testdata")
}

// TestGates runs the driver in each seeded-violation module under
// testdata/gates (see the README there): each must exit 2 with exactly
// one finding, and that finding must contain the phrase in the module's
// expect file. The discard, lockorder, nondetflow and errflow findings
// span packages, so they exist only if facts flow through the driver's
// store; a row that finds nothing means an analyzer silently stopped
// working.
func TestGates(t *testing.T) {
	for _, gate := range []string{"ctxflow", "discard", "errflow", "goroutineleak", "lockorder", "nondetflow", "wallclock"} {
		t.Run(gate, func(t *testing.T) {
			dir := filepath.Join(testdataDir(t), "gates", gate)
			expect, err := os.ReadFile(filepath.Join(dir, "expect"))
			if err != nil {
				t.Fatal(err)
			}
			phrase := strings.TrimSpace(string(expect))
			chdir(t, dir)
			out, rc := capture(t, func() int { return run([]string{"./..."}) })
			if rc != 2 {
				t.Fatalf("exit code = %d, want 2 (seeded violation not flagged); out=%s", rc, out)
			}
			findings := strings.Split(strings.TrimSpace(out), "\n")
			if len(findings) != 1 {
				t.Fatalf("got %d findings, want exactly 1:\n%s", len(findings), out)
			}
			if !strings.Contains(findings[0], phrase) {
				t.Errorf("finding %q does not contain %q", findings[0], phrase)
			}
		})
	}
}

// TestUsageError pins the driver's single mode: any argument other than
// -json, -h or ./... is a usage error.
func TestUsageError(t *testing.T) {
	if rc := run([]string{"./internal/core"}); rc != 1 {
		t.Errorf("run(./internal/core) = %d, want 1", rc)
	}
}
