package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// update rewrites the golden file: go test ./examples/sensors -update
var update = flag.Bool("update", false, "rewrite testdata/golden.txt")

// TestGolden runs the example and diffs everything it prints against
// testdata/golden.txt.
func TestGolden(t *testing.T) {
	got := captureStdout(t, main)
	path := filepath.Join("testdata", "golden.txt")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// captureStdout runs fn with os.Stdout redirected into a pipe and
// returns what it wrote.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = orig }()
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	fn()
	w.Close()
	return <-out
}
