package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFloatCmpFixRoundTrip is the acceptance check for -fix: applying
// the suggested rewrites to the floatcmp fixture must leave a package
// that still type-checks and lints clean except for the complex-number
// comparison, which has no ordered form and therefore no fix.
func TestFloatCmpFixRoundTrip(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "src", "floatbad", "floatbad.go"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module tmpfloat\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(dir, "floatbad.go")
	if err := os.WriteFile(file, src, 0o644); err != nil {
		t.Fatal(err)
	}

	prog, err := LoadModule(dir, "tmpfloat")
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	diags := prog.Run(Analyzers())
	if len(diags) != 4 {
		t.Fatalf("got %d findings before fixing, want 4:\n%v", len(diags), diags)
	}
	remaining, applied, err := ApplyFixes(diags)
	if err != nil {
		t.Fatalf("ApplyFixes: %v", err)
	}
	if applied != 3 {
		t.Fatalf("applied %d fixes, want 3 (complex comparison has no ordered form)", applied)
	}
	if len(remaining) != 1 || !strings.Contains(remaining[0].Message, "==") {
		t.Fatalf("remaining = %v, want the single complex == finding", remaining)
	}

	// The rewritten file must still load (i.e. parse and type-check) and
	// must now be clean apart from the unfixable complex comparison.
	prog2, err := LoadModule(dir, "tmpfloat")
	if err != nil {
		t.Fatalf("LoadModule after fix: %v", err)
	}
	diags2 := prog2.Run(Analyzers())
	if len(diags2) != 1 || diags2[0].Analyzer != "floatcmp" {
		t.Fatalf("post-fix findings = %v, want only the complex == finding", diags2)
	}
	if diags2[0].Pos.Line != remaining[0].Pos.Line {
		t.Fatalf("surviving finding moved: line %d, want %d", diags2[0].Pos.Line, remaining[0].Pos.Line)
	}
	fixed, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"(m.w[c] <= 0 && m.w[c] >= 0)", // != 0 keeps NaN behavior via negation outside
		"(a <= b && a >= b)",
		"!(x <= x && x >= x)",
	} {
		if !strings.Contains(string(fixed), want) {
			t.Errorf("rewritten source missing %q:\n%s", want, fixed)
		}
	}
}

func TestApplyFixesRejectsOverlap(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "x.txt")
	if err := os.WriteFile(file, []byte("0123456789"), 0o644); err != nil {
		t.Fatal(err)
	}
	diag := func(start, end int, text string) Diagnostic {
		var d Diagnostic
		d.Pos.Filename = file
		d.Fix = &Fix{Start: start, End: end, NewText: text}
		return d
	}
	if _, _, err := ApplyFixes([]Diagnostic{diag(2, 6, "X"), diag(4, 8, "Y")}); err == nil {
		t.Fatal("overlapping fixes not rejected")
	}
	remaining, applied, err := ApplyFixes([]Diagnostic{diag(6, 8, "B"), diag(2, 4, "A")})
	if err != nil || applied != 2 || len(remaining) != 0 {
		t.Fatalf("disjoint fixes: remaining=%v applied=%d err=%v", remaining, applied, err)
	}
	got, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "01A45B89" {
		t.Fatalf("spliced file = %q, want %q", got, "01A45B89")
	}
}
