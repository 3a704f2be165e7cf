package scenario

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"

	"foam/internal/core"
	"foam/internal/sphere"
)

// TestRegistryConformance steps every registered scenario several simulated
// days (the R15 rows fewer in -short) and asserts the stability
// invariants: every surface field stays finite, winds and currents stay
// bounded, and the land and river water ledgers each close to round-off.
// This is the gate a scenario must pass to stay in the registry
// (EXPERIMENTS.md E16).
func TestRegistryConformance(t *testing.T) {
	for _, sp := range All() {
		sp := sp
		t.Run(sp.Name, func(t *testing.T) {
			t.Parallel()
			// An r5 row costs a fraction of a second and keeps the full
			// window in -short: the land buckets need days to overflow.
			spinDays, measureDays := 1.0, 2.0
			if testing.Short() && sp.Rung != "" && sp.Rung != "r5" {
				spinDays, measureDays = 0.5, 0.5
			}
			cfg, err := Build(sp)
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			m, err := core.New(cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			m.StepDays(spinDays)
			m.Cpl.ResetBudget()
			riverBefore := m.Cpl.River.TotalStorage() * 1000 // m^3 -> kg
			// Land stores: bucket + snow, in kg.
			landStore := func() float64 {
				g := m.Atm.Grid()
				tot := 0.0
				for j := 0; j < g.NLat(); j++ {
					for i := 0; i < g.NLon(); i++ {
						c := g.Index(j, i)
						if m.Cpl.Land.IsLand(c) {
							lf := m.Cpl.LandFraction()[c]
							tot += (m.Cpl.Land.SoilWater(c) + m.Cpl.Land.SnowDepth(c)) * 1000 * g.Area(j, i) * lf
						}
					}
				}
				return tot
			}
			lBefore := landStore()
			m.StepDays(measureDays)

			d := m.Diagnostics()
			// Finite fields: the combined diagnostics and the full SST field.
			for name, v := range map[string]float64{
				"atm.MeanPs": d.Atm.MeanPs, "atm.MeanT": d.Atm.MeanT,
				"atm.MaxWind": d.Atm.MaxWind, "atm.KineticMean": d.Atm.KineticMean,
				"ocn.MeanSST": d.Ocn.MeanSST, "ocn.MaxSpeed": d.Ocn.MaxSpeed,
				"ocn.MeanKE": d.Ocn.MeanKE,
			} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%s is not finite: %v", name, v)
				}
			}
			for c, v := range m.SST() {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("SST[%d] is not finite: %v", c, v)
				}
				if v < -5 || v > 45 {
					t.Fatalf("SST[%d] out of physical range: %v", c, v)
				}
			}
			// Bounded winds and currents.
			if d.Atm.MaxWind > 250 {
				t.Fatalf("max wind %v m/s unbounded", d.Atm.MaxWind)
			}
			if d.Ocn.MaxSpeed > 3.5 { // the clamp is 3.0
				t.Fatalf("max current %v m/s above the velocity clamp", d.Ocn.MaxSpeed)
			}
			if d.Atm.MeanT < 200 || d.Atm.MeanT > 320 {
				t.Fatalf("mean temperature %v K drifted out of range", d.Atm.MeanT)
			}
			// Split water ledgers, each closed to round-off of its larger
			// side: the land buckets take P and lose E + Runoff, the rivers
			// take Runoff and deliver RiverToOcean.
			b := m.Cpl.Budget()
			ledger := func(name string, in, out, dStore float64) {
				t.Helper()
				res := in - out - dStore
				if scale := math.Max(in, out); math.Abs(res) > 1e-11*scale {
					t.Errorf("%s ledger not closed: in=%v out=%v dStore=%v (residual %v, %.2e of %v)",
						name, in, out, dStore, res, math.Abs(res)/scale, scale)
				}
			}
			ledger("land", b.Precip, b.Evap+b.Runoff, landStore()-lBefore)
			ledger("river", b.Runoff, b.RiverToOcean, m.Cpl.River.TotalStorage()*1000-riverBefore)
			if sp.Physics != "adiabatic" && b.Precip <= 0 {
				t.Errorf("no precipitation over land (P=%v)", b.Precip)
			}
		})
	}
}

// TestPaperFoamBitIdentity pins the refactor's central promise: the
// paper-foam scenario compiles to exactly today's DefaultConfig and its
// multi-day trajectory checkpoints bit-identically.
func TestPaperFoamBitIdentity(t *testing.T) {
	sp, ok := Lookup("paper-foam")
	if !ok {
		t.Fatal("paper-foam not registered")
	}
	built, err := Build(sp)
	if err != nil {
		t.Fatal(err)
	}
	def, err := core.DefaultConfig().Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(built, def) {
		t.Fatalf("paper-foam config differs from DefaultConfig:\nbuilt=%+v\ndefault=%+v", built, def)
	}

	days := 2.0
	if testing.Short() {
		days = 1.0
	}
	run := func(cfg core.Config) []byte {
		m, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.StepDays(days)
		var buf bytes.Buffer
		if err := m.Checkpoint().Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a := run(built)
	b := run(core.DefaultConfig())
	if !bytes.Equal(a, b) {
		t.Fatalf("paper-foam checkpoint differs from the DefaultConfig trajectory after %v days (%d vs %d bytes)",
			days, len(a), len(b))
	}
}

// TestR5QuickMatchesReducedConfig keeps the cheap rung aligned with the
// config the whole test suite is calibrated against.
func TestR5QuickMatchesReducedConfig(t *testing.T) {
	sp, ok := Lookup("r5-quick")
	if !ok {
		t.Fatal("r5-quick not registered")
	}
	built, err := Build(sp)
	if err != nil {
		t.Fatal(err)
	}
	red, err := core.ReducedConfig().Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(built, red) {
		t.Fatalf("r5-quick differs from ReducedConfig:\nbuilt=%+v\nreduced=%+v", built, red)
	}
}

// TestPerturbedSharesTables: a perturbed-physics member must share the base
// scenario's table set — deltas are pure parameter multipliers.
func TestPerturbedSharesTables(t *testing.T) {
	pert, _ := Lookup("perturbed-physics")
	base, _ := Lookup("r5-quick")
	pcfg, err := Build(pert)
	if err != nil {
		t.Fatal(err)
	}
	bcfg, err := Build(base)
	if err != nil {
		t.Fatal(err)
	}
	if pcfg.TableKey() != bcfg.TableKey() {
		t.Fatalf("perturbed-physics table key %q != base %q", pcfg.TableKey(), bcfg.TableKey())
	}
	if pcfg.Atm.Diff4 == bcfg.Atm.Diff4 {
		t.Fatal("perturbed-physics did not scale Diff4")
	}
}

// TestScenarioJSONRoundTrip: every registry entry must survive
// encode→decode→Build with an identical compiled config.
func TestScenarioJSONRoundTrip(t *testing.T) {
	for _, sp := range All() {
		b, err := sp.Encode()
		if err != nil {
			t.Fatalf("%s: Encode: %v", sp.Name, err)
		}
		got, err := Decode(b)
		if err != nil {
			t.Fatalf("%s: Decode: %v", sp.Name, err)
		}
		want := sp
		want.V = Version
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: round trip changed the spec:\ngot= %+v\nwant=%+v", sp.Name, got, want)
		}
		c1, err := Build(sp)
		if err != nil {
			t.Fatalf("%s: Build: %v", sp.Name, err)
		}
		c2, err := Build(got)
		if err != nil {
			t.Fatalf("%s: Build after round trip: %v", sp.Name, err)
		}
		if !reflect.DeepEqual(c1, c2) {
			t.Fatalf("%s: round trip changed the compiled config", sp.Name)
		}
	}
}

// TestBuildRejections: malformed specs must error (wrapping core.ErrConfig
// once they reach the Normalize gate), never panic.
func TestBuildRejections(t *testing.T) {
	cases := []struct {
		name      string
		sp        Spec
		coreClass bool // rejection comes from the Normalize gate
	}{
		{"unknown-rung", Spec{Rung: "r99"}, false},
		{"unknown-physics", Spec{Physics: "ccm7"}, false},
		{"unsupported-version", Spec{V: 99}, false},
		{"unknown-delta-param", Spec{Deltas: []Delta{{Param: "atm.gravity", Scale: 2}}}, false},
		{"non-finite-delta", Spec{Deltas: []Delta{{Param: "atm.diff4", Scale: math.NaN()}}}, false},
		{"unknown-world", Spec{World: "flatland"}, true},
		{"unknown-ocean-mode", Spec{Ocean: OceanSpec{Mode: "tidal"}}, true},
		{"negative-delta-makes-negative-diffusivity", Spec{Deltas: []Delta{{Param: "ocn.kappa0", Scale: -1}}}, true},
		{"bad-lag", Spec{OceanLag: 3}, true},
		{"negative-levels", Spec{Levels: -4}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Build(tc.sp)
			if err == nil {
				t.Fatal("Build accepted a malformed spec")
			}
			if tc.coreClass && !errors.Is(err, core.ErrConfig) {
				t.Fatalf("rejection %v does not wrap core.ErrConfig", err)
			}
		})
	}
}

// TestDecodeRejectsUnknownFields: a typo'd knob must not silently run the
// default configuration.
func TestDecodeRejectsUnknownFields(t *testing.T) {
	if _, err := Decode([]byte(`{"rung":"r5","rotation_scael":2}`)); err == nil {
		t.Fatal("Decode accepted an unknown field")
	}
	if _, err := Decode([]byte(`{"rung":"r5"} trailing`)); err == nil {
		t.Fatal("Decode accepted trailing data")
	}
	if _, err := Decode([]byte(`{`)); err == nil {
		t.Fatal("Decode accepted truncated JSON")
	}
}

// TestRungLadder sanity-checks the E8 scaling across the ladder: time step
// shrinks with truncation and every rung compiles and nests its cadence.
func TestRungLadder(t *testing.T) {
	prevDt := math.Inf(1)
	for _, r := range Rungs() {
		cfg, err := Build(Spec{Rung: r.Name})
		if err != nil {
			t.Fatalf("rung %s does not compile: %v", r.Name, err)
		}
		if cfg.Atm.Dt >= prevDt {
			t.Fatalf("rung %s time step %v did not shrink (prev %v)", r.Name, cfg.Atm.Dt, prevDt)
		}
		prevDt = cfg.Atm.Dt
		if cfg.Atm.RadiationEvery%cfg.OceanEvery != 0 {
			t.Fatalf("rung %s cadence does not nest", r.Name)
		}
		stepsPerDay := sphere.SecondsPerDay / cfg.Atm.Dt
		if float64(cfg.OceanEvery) > stepsPerDay {
			t.Fatalf("rung %s couples less than daily", r.Name)
		}
	}
}

// TestRegistryRows: the CLI table must render every entry.
func TestRegistryRows(t *testing.T) {
	rows, err := Rows()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 8 {
		t.Fatalf("registry has %d scenarios, want >= 8", len(rows))
	}
	seen := map[string]bool{}
	for _, r := range rows {
		if r.Name == "" || r.Grid == "" || r.Physics == "" || r.Ocean == "" || r.Description == "" {
			t.Fatalf("incomplete row %+v", r)
		}
		if seen[r.Name] {
			t.Fatalf("duplicate scenario name %q", r.Name)
		}
		seen[r.Name] = true
	}
	for _, want := range []string{"paper-foam", "paper-foam-lag1", "aquaplanet", "slab-ocean",
		"ice-world", "doubled-rotation", "adiabatic-core", "r5-quick", "perturbed-physics"} {
		if !seen[want] {
			t.Fatalf("registry is missing %q", want)
		}
	}
}
