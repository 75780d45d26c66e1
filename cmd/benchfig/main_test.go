package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sympack"
)

func TestHeaders(t *testing.T) {
	for _, name := range []string{"table1", "5", "6", "7", "8", "9", "10", "11", "12", "variants"} {
		if h := header(name); h == name || h == "" {
			t.Fatalf("missing header for %s", name)
		}
	}
	if header("zz") != "zz" {
		t.Fatal("unknown name should pass through")
	}
}

func TestSizeName(t *testing.T) {
	cases := map[int64]string{16: "16B", 4 << 10: "4kiB", 1 << 20: "1MiB"}
	for b, want := range cases {
		if got := sizeName(b); got != want {
			t.Fatalf("sizeName(%d) = %q, want %q", b, got, want)
		}
	}
}

func TestFigureRunnersSmallScale(t *testing.T) {
	if err := table1(1); err != nil {
		t.Fatal(err)
	}
	if err := fig5(1); err != nil {
		t.Fatal(err)
	}
	if err := fig6(1); err != nil {
		t.Fatal(err)
	}
}

func TestScalingRunnerSmallScale(t *testing.T) {
	// One factor figure on the smallest matrix keeps this quick while
	// driving the full sweep code path.
	figures = nil
	if err := scaling("bone test", bone.Build, false)(0); err != nil {
		t.Fatal(err)
	}
	if len(figures) != 1 || len(figures[0].Points) == 0 {
		t.Fatalf("scaling runner collected %d figures", len(figures))
	}
}

// TestScalingReportRoundTrip is the ISSUE acceptance check: the
// BENCH_scaling.json document written by the scaling runners must
// round-trip through encoding/json with its curves intact.
func TestScalingReportRoundTrip(t *testing.T) {
	figures = nil
	if err := scaling("bone test", bone.Build, false)(0); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_scaling.json")
	if err := writeScalingReport(path, 0, figures); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep sympack.RunReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Schema == "" || rep.Command != "benchfig" {
		t.Fatalf("schema %q command %q", rep.Schema, rep.Command)
	}
	if len(rep.Figures) != len(figures) {
		t.Fatalf("%d figures, want %d", len(rep.Figures), len(figures))
	}
	for i := range rep.Figures {
		if rep.Figures[i].Name != figures[i].Name || len(rep.Figures[i].Points) != len(figures[i].Points) {
			t.Fatalf("figure %d did not survive the round trip", i)
		}
		for j, p := range rep.Figures[i].Points {
			if p != figures[i].Points[j] {
				t.Fatalf("figure %d point %d: %+v != %+v", i, j, p, figures[i].Points[j])
			}
		}
	}
}

// TestVariantsRunner drives the formulation-comparison figure: two scales ×
// three formulations must yield six curves, each point carrying fan-out's
// time in the baseline column (so the fan-out curve has Seconds ==
// Baseline everywhere).
func TestVariantsRunner(t *testing.T) {
	figures = nil
	if err := variantsFig(0); err != nil {
		t.Fatal(err)
	}
	if len(figures) != 6 {
		t.Fatalf("variants collected %d figures, want 6", len(figures))
	}
	for _, fig := range figures {
		if len(fig.Points) == 0 {
			t.Fatalf("figure %s has no points", fig.Name)
		}
		for _, p := range fig.Points {
			if p.Seconds <= 0 || p.Baseline <= 0 {
				t.Fatalf("figure %s: non-positive point %+v", fig.Name, p)
			}
			if strings.Contains(fig.Name, "fan-out") && p.Seconds != p.Baseline {
				t.Fatalf("figure %s: fan-out must be its own baseline, got %+v", fig.Name, p)
			}
		}
	}
}
