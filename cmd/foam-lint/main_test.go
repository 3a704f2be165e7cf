package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a throwaway Go module and returns its root.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func inDir(t *testing.T, dir string) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(old) })
}

const goMod = "module tmpmod\n\ngo 1.22\n"

// TestOverlapPatternsDeduplicate: a finding whose file is covered by
// several patterns (./... plus the explicit subtree) must be reported
// exactly once.
func TestOverlapPatternsDeduplicate(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": goMod,
		"sub/thing.go": `// Package sub compares floats exactly.
package sub

// Same compares computed values exactly.
func Same(a, b float64) bool { return a == b }
`,
	})
	inDir(t, dir)
	var out, errb bytes.Buffer
	if code := run([]string{"./...", "./sub/...", "./sub/..."}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("got %d finding lines with overlapping patterns, want 1:\n%s", len(lines), out.String())
	}
	if !strings.Contains(lines[0], "[floatcmp]") {
		t.Fatalf("unexpected finding: %s", lines[0])
	}
}

// TestFixRoundTrip: -fix rewrites float comparisons to their exact
// ordered form and normalizes spaced //foam: directives, after which a
// plain run is clean.
func TestFixRoundTrip(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": goMod,
		"sub/thing.go": `// Package sub tests mask cells the buggy way.
package sub

// Wet tests mask cells.
func Wet(w []float64, c int) bool {
	// foam:allow floatcmp mask cells hold exact 0/1 constants
	return w[c] != 0
}
`,
	})
	inDir(t, dir)

	var out, errb bytes.Buffer
	if code := run([]string{"-fix", "./..."}, &out, &errb); code != 0 {
		t.Fatalf("-fix run exit %d, want 0; stdout: %s stderr: %s", code, out.String(), errb.String())
	}
	if !strings.Contains(errb.String(), "applied 2 fix(es)") {
		t.Fatalf("expected 2 applied fixes, stderr: %s", errb.String())
	}
	src, err := os.ReadFile(filepath.Join(dir, "sub", "thing.go"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(src), "//foam:allow floatcmp") {
		t.Fatalf("directive not normalized:\n%s", src)
	}
	if !strings.Contains(string(src), "!(w[c] <= 0 && w[c] >= 0)") {
		t.Fatalf("comparison not rewritten:\n%s", src)
	}

	out.Reset()
	errb.Reset()
	if code := run([]string{"./..."}, &out, &errb); code != 0 {
		t.Fatalf("post-fix run exit %d, want 0; stdout: %s stderr: %s", code, out.String(), errb.String())
	}
}
