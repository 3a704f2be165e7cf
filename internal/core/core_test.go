package core_test

import (
	"errors"
	"foam/internal/core"
	"math"
	"testing"
)

func TestReducedCoupledWeek(t *testing.T) {
	cfg := scenarioConfig(t, "r5-quick")
	m, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.StepDays(7)
	d := m.Diagnostics()
	if math.IsNaN(d.Atm.MeanT) || d.Atm.MeanT < 180 || d.Atm.MeanT > 330 {
		t.Fatalf("atmosphere mean T %v out of range", d.Atm.MeanT)
	}
	if d.Atm.MeanPs < 9.0e4 || d.Atm.MeanPs > 1.1e5 {
		t.Fatalf("mean surface pressure %v", d.Atm.MeanPs)
	}
	if math.IsNaN(d.Ocn.MeanSST) || d.Ocn.MeanSST < -2 || d.Ocn.MeanSST > 35 {
		t.Fatalf("ocean mean SST %v out of range", d.Ocn.MeanSST)
	}
	if d.Ocn.MaxSpeed > 3.01 {
		t.Fatalf("ocean speed %v beyond limiter", d.Ocn.MaxSpeed)
	}
	if d.Atm.MaxWind > 250 {
		t.Fatalf("atmosphere wind %v unstable", d.Atm.MaxWind)
	}
}

func TestCoupledOceanCalledOnSchedule(t *testing.T) {
	cfg := scenarioConfig(t, "r5-quick")
	m, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := m.Ocn.StepCount()
	for s := 0; s < cfg.OceanEvery; s++ {
		m.Step()
	}
	if m.Ocn.StepCount() != before+1 {
		t.Fatalf("ocean stepped %d times, want 1", m.Ocn.StepCount()-before)
	}
	if m.SimTime() != float64(cfg.OceanEvery)*cfg.Atm.Dt {
		t.Fatalf("sim time %v", m.SimTime())
	}
}

// TestConfigNormalizeRejections drives every invalid-spec class through
// Normalize — the single validation gate — and requires each rejection to
// wrap the matchable ErrConfig sentinel. This keeps the BuildTables-panic
// class dead: no construction path reaches table building with a bad spec.
func TestConfigNormalizeRejections(t *testing.T) {
	for _, name := range []string{"paper-foam", "r5-quick"} {
		if _, err := scenarioConfig(t, name).Normalize(); err != nil {
			t.Fatalf("%s: the compiled config does not normalize again: %v", name, err)
		}
	}
	cases := []struct {
		name   string
		mutate func(*core.Config)
	}{
		{"ocean-every-zero", func(c *core.Config) { c.OceanEvery = 0 }},
		{"ocean-lag-out-of-range", func(c *core.Config) { c.OceanLag = 2 }},
		{"non-divisor-radiation-cadence", func(c *core.Config) { c.OceanEvery = 7 }}, // 24 % 7 != 0
		{"bad-truncation-grid-pair", func(c *core.Config) { c.Atm.NLon = 2 * c.Atm.Trunc.M }},
		{"zero-atm-latitudes", func(c *core.Config) { c.Atm.NLat = 0 }},
		{"negative-atm-latitudes", func(c *core.Config) { c.Atm.NLat = -4 }},
		{"odd-atm-latitudes", func(c *core.Config) { c.Atm.NLat = 41 }},
		{"too-few-atm-levels", func(c *core.Config) { c.Atm.NLev = 1 }},
		{"nonpositive-atm-dt", func(c *core.Config) { c.Atm.Dt = 0 }},
		{"negative-atm-hyperdiffusion", func(c *core.Config) { c.Atm.Diff4 = -1e17 }},
		{"negative-atm-rotation", func(c *core.Config) { c.Atm.RotationScale = -1 }},
		{"negative-year-length", func(c *core.Config) { c.Atm.YearDays = -360 }},
		{"ocean-grid-too-small", func(c *core.Config) { c.Ocn.NLat, c.Ocn.NLon = 2, 2 }},
		{"ocean-slowdown-below-one", func(c *core.Config) { c.Ocn.Slowdown = 0.5 }},
		{"negative-ocean-tracer-diffusivity", func(c *core.Config) { c.Ocn.AH = -1e4 }},
		{"negative-ocean-viscosity", func(c *core.Config) { c.Ocn.AM = -1e5 }},
		{"negative-ocean-vertical-diffusivity", func(c *core.Config) { c.Ocn.KappaB = -1e-5 }},
		{"negative-ocean-mixing-amplitude", func(c *core.Config) { c.Ocn.Kappa0 = -5e-3 }},
		{"negative-ocean-biharmonic", func(c *core.Config) { c.Ocn.BiharmCoef = -0.25 }},
		{"unknown-ocean-mode", func(c *core.Config) { c.Ocn.Mode = "tidal" }},
		{"negative-slab-depth", func(c *core.Config) { c.Ocn.SlabDepth = -50 }},
		{"negative-ocean-rotation", func(c *core.Config) { c.Ocn.RotationScale = -2 }},
		{"unknown-world-mask", func(c *core.Config) { c.World = "flatland" }},
		{"bad-ocean-latitude-range", func(c *core.Config) { c.Ocn.LatSouth, c.Ocn.LatNorth = 30, -30 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := scenarioConfig(t, "paper-foam")
			tc.mutate(&cfg)
			_, err := cfg.Normalize()
			if err == nil {
				t.Fatal("Normalize accepted an invalid config")
			}
			if !errors.Is(err, core.ErrConfig) {
				t.Fatalf("rejection %v does not wrap ErrConfig", err)
			}
			if _, nerr := core.New(cfg); nerr == nil {
				t.Fatal("New accepted an invalid config")
			}
		})
	}
}
