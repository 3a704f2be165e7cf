package main

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"foam"
	"foam/internal/scenario"
)

// TestListScenarios: the -list-scenarios table must carry a header and one
// complete row per registry entry.
func TestListScenarios(t *testing.T) {
	var sb strings.Builder
	if err := listScenarios(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != len(scenario.Names())+1 {
		t.Fatalf("table has %d lines, want %d (header + one per scenario):\n%s",
			len(lines), len(scenario.Names())+1, out)
	}
	for _, col := range []string{"NAME", "GRID", "PHYSICS", "OCEAN", "WORLD", "DESCRIPTION"} {
		if !strings.Contains(lines[0], col) {
			t.Fatalf("header %q is missing column %s", lines[0], col)
		}
	}
	for _, name := range scenario.Names() {
		if !strings.Contains(out, name) {
			t.Fatalf("table is missing scenario %q:\n%s", name, out)
		}
	}
}

// TestResolveConfigByName: a registered name compiles without touching the
// filesystem.
func TestResolveConfigByName(t *testing.T) {
	cfg, name, err := resolveConfig("r5-quick", -1)
	if err != nil {
		t.Fatal(err)
	}
	if name != "r5-quick" || cfg.Atm.Trunc.M != 5 {
		t.Fatalf("resolved %q with truncation R%d, want r5-quick at R5", name, cfg.Atm.Trunc.M)
	}
}

// TestResolveConfigFromFile: a JSON spec file compiles, and its Name field
// labels the run.
func TestResolveConfigFromFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spec.json")
	spec := `{"name":"my-aqua","rung":"r5","world":"aquaplanet"}` + "\n"
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, name, err := resolveConfig(path, -1)
	if err != nil {
		t.Fatal(err)
	}
	if name != "my-aqua" || cfg.World != "aquaplanet" {
		t.Fatalf("resolved %q with world %q, want my-aqua on aquaplanet", name, cfg.World)
	}
}

// TestResolveConfigUnknown: an argument that is neither a registered name
// nor a readable file must error, listing the registry.
func TestResolveConfigUnknown(t *testing.T) {
	_, _, err := resolveConfig("nonesuch", -1)
	if err == nil {
		t.Fatal("resolveConfig accepted an unknown argument")
	}
	if !strings.Contains(err.Error(), "paper-foam") {
		t.Fatalf("error does not list the registry: %v", err)
	}
}

// TestResolveConfigDefaultAndLag pins the one rule of configuration naming:
// no argument means r5-quick, the scenario owns the coupling lag, and only
// an explicit -lag (including an explicit 0) overrides it.
func TestResolveConfigDefaultAndLag(t *testing.T) {
	cases := []struct {
		arg     string
		lag     int // -1: flag not given
		name    string
		wantLag int
	}{
		{"", -1, "r5-quick", 0},
		{"", 1, "r5-quick", 1},
		{"paper-foam-lag1", -1, "paper-foam-lag1", 1},
		{"paper-foam-lag1", 0, "paper-foam-lag1", 0},
		{"paper-foam", 1, "paper-foam", 1},
	}
	for _, tc := range cases {
		cfg, name, err := resolveConfig(tc.arg, tc.lag)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if name != tc.name || cfg.OceanLag != tc.wantLag {
			t.Errorf("%+v: resolved %q with lag %d, want %q with lag %d", tc, name, cfg.OceanLag, tc.name, tc.wantLag)
		}
	}
}

// TestAdvanceFractionalDays: -days 0.625 at r5-quick's 16 steps per day is
// exactly 10 ticks — stepped, with the simulated time to show for it and no
// end-of-day report — and 1.5 days is 24 ticks with one report, after the
// first whole day.
func TestAdvanceFractionalDays(t *testing.T) {
	cfg, _, err := resolveConfig("r5-quick", -1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 1
	stepsPerDay := int(86400 / cfg.Atm.Dt)
	for _, tc := range []struct {
		days      float64
		wantTicks int
		wantDays  []int
	}{
		{0.625, 10, nil},
		{1.5, 24, []int{1}},
	} {
		m, err := foam.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var reported []int
		advance(m, int(math.Round(tc.days*float64(stepsPerDay))), stepsPerDay, func(d int) {
			if m.StepCount() != d*stepsPerDay {
				t.Errorf("-days %g: day %d reported at step %d", tc.days, d, m.StepCount())
			}
			reported = append(reported, d)
		})
		if m.StepCount() != tc.wantTicks || m.SimTime() != tc.days*86400 {
			t.Errorf("-days %g: stepped %d ticks (%g s simulated), want %d ticks (%g s)",
				tc.days, m.StepCount(), m.SimTime(), tc.wantTicks, tc.days*86400)
		}
		if !reflect.DeepEqual(reported, tc.wantDays) {
			t.Errorf("-days %g: end-of-day reports %v, want %v", tc.days, reported, tc.wantDays)
		}
		m.Close()
	}
}
