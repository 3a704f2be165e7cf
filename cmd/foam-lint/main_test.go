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
		"sub/thing.go": `// Package sub reads the wall clock.
//
//foam:deterministic
package sub

import "time"

// Stamp reads the wall clock in a deterministic package.
func Stamp() time.Time { return time.Now() }
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
	if !strings.Contains(lines[0], "[nondeterminism]") {
		t.Fatalf("unexpected finding: %s", lines[0])
	}
}
