package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFindingsPinned pins every diagnostic the suite produces on two
// inputs, one "path:line:col: message [analyzer]" line each with
// module-relative paths: the fixture module as Program.Run reports it,
// and this repository with //foam:allow bypassed (each analyzer's Run
// called directly), so the findings the pragmas suppress are pinned too.
// A change to the suite that drops, adds or rewords a finding shows up as
// a diff against testdata/findings-*.golden.
func TestFindingsPinned(t *testing.T) {
	t.Run("fixtures", func(t *testing.T) {
		prog, diags := loadFixtures(t)
		checkGolden(t, "findings-fixtures.golden", pinLines(prog.RootDir, diags))
	})
	t.Run("repo", func(t *testing.T) {
		if testing.Short() {
			t.Skip("type-checks the whole module; skipped in -short")
		}
		root, modPath, err := FindModuleRoot(".")
		if err != nil {
			t.Fatalf("FindModuleRoot: %v", err)
		}
		prog, err := LoadModule(root, modPath)
		if err != nil {
			t.Fatalf("LoadModule: %v", err)
		}
		diags := append([]Diagnostic(nil), prog.pragmas.diags...)
		for _, a := range Analyzers() {
			a.Run(prog, func(d Diagnostic) {
				d.Analyzer = a.Name
				diags = append(diags, d)
			})
		}
		sortDiagnostics(diags)
		checkGolden(t, "findings-repo.golden", pinLines(root, diags))
	})
}

// pinLines renders diagnostics with paths relative to root.
func pinLines(root string, diags []Diagnostic) []string {
	out := make([]string, len(diags))
	for i, d := range diags {
		if rel, err := filepath.Rel(root, d.Pos.Filename); err == nil {
			d.Pos.Filename = filepath.ToSlash(rel)
		}
		out[i] = d.String()
	}
	return out
}

// checkGolden compares got with the named file under testdata and
// reports each line present on only one side.
func checkGolden(t *testing.T, name string, got []string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(want) == 1 && want[0] == "" {
		want = nil
	}
	count := make(map[string]int)
	for _, l := range want {
		count[l]++
	}
	for _, l := range got {
		count[l]--
	}
	for _, l := range want {
		if count[l] > 0 {
			t.Errorf("pinned finding no longer reported: %s", l)
			count[l]--
		}
	}
	for _, l := range got {
		if count[l] < 0 {
			t.Errorf("new finding: %s", l)
			count[l]++
		}
	}
	if !t.Failed() && strings.Join(want, "\n") != strings.Join(got, "\n") {
		t.Errorf("%s: same findings in a different order", name)
	}
}
