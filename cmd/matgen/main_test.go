package main

import (
	"path/filepath"
	"reflect"
	"testing"

	"sympack/internal/gen"
	"sympack/internal/matrix"
)

// TestWriteReadsBack writes each format and reads it back as the matrix
// gen.Build produced.
func TestWriteReadsBack(t *testing.T) {
	want, err := gen.Build("bone", 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	for format, file := range map[string]string{"mm": "a.mtx", "rb": "a.rb"} {
		path := filepath.Join(t.TempDir(), file)
		if err := write("bone", 1, 7, format, path); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		got, err := matrix.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if got.N != want.N || !reflect.DeepEqual(got.ColPtr, want.ColPtr) || !reflect.DeepEqual(got.RowInd, want.RowInd) {
			t.Fatalf("%s: read back a different pattern", format)
		}
	}
	if err := write("bone", 1, 7, "csv", filepath.Join(t.TempDir(), "a")); err == nil {
		t.Fatal("expected unknown-format error")
	}
}
