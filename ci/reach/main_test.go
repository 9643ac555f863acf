package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFixture runs the checker over testdata/repo, a module laid out
// like the repository. Its main reaches a function only through a
// closure, a generic function, a value-receiver and a pointer-receiver
// method and a method only through an interface call; the generated
// mdqa root reaches an exported mdqa function and a method of an
// aliased type, and perfbench one more function. Of the rest, one
// function is allowlisted and one, in dead.go, is reached by nothing.
func TestFixture(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS("testdata/repo")); err != nil {
		t.Fatal(err)
	}

	code, report := runFixture(t, dir)
	if code != 1 || len(report) != 1 || report[0] != "internal/lib/dead.go:4: internal/lib.Dead" {
		t.Fatalf("exit %d, report %q; want 1 and only internal/lib.Dead", code, report)
	}

	if err := os.Remove(filepath.Join(dir, "internal", "lib", "dead.go")); err != nil {
		t.Fatal(err)
	}
	if code, report := runFixture(t, dir); code != 0 || len(report) != 0 {
		t.Fatalf("without dead.go: exit %d, report %q; want 0 and none", code, report)
	}
}

// runFixture runs the checker on dir and returns its exit status and
// its report lines, without the summary lines.
func runFixture(t *testing.T, dir string) (int, []string) {
	t.Helper()
	var stdout, stderr strings.Builder
	code := run(dir, &stdout, &stderr)
	if stderr.Len() > 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	var report []string
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		if !strings.HasPrefix(line, "reach: ") {
			report = append(report, line)
		}
	}
	return code, report
}
