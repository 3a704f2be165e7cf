package foam

import (
	"testing"

	"foam/internal/ensemble"
	"foam/internal/scenario"
)

// allocScenarios is the registry the coupled allocation gate runs over:
// every r5 scenario (slab, aquaplanet, adiabatic core, the other worlds),
// plus the paper's lagged R15 configuration outside -short.
func allocScenarios() []string {
	var names []string
	for _, name := range scenario.Names() {
		sp, _ := scenario.Lookup(name)
		if sp.Rung == "" || sp.Rung == "r5" || (name == "paper-foam-lag1" && !testing.Short()) {
			names = append(names, name)
		}
	}
	return names
}

// allocWindow is the number of coupled steps one gate measurement covers:
// whole cycles of lcm(OceanEvery, RadiationEvery), at least 24 steps, so
// every ocean call, radiation step and forcing drain of the cadence is
// inside it.
func allocWindow(cfg Config) int {
	a, b := cfg.OceanEvery, cfg.Atm.RadiationEvery
	for b != 0 {
		a, b = b, a%b
	}
	cycle := cfg.OceanEvery / a * cfg.Atm.RadiationEvery
	return (24 + cycle - 1) / cycle * cycle
}

// TestCoupledStepAllocs is the allocation-regression gate for the coupled
// hot path: after construction and a one-day warmup, a window of whole
// coupling-and-radiation cycles must not allocate at all. Every per-step
// buffer lives in construction-time workspaces (DESIGN.md §9), so a nonzero
// reading means a hot-path make or an escaping closure crept back in.
//
// The gate counts the total over the window (AllocsPerRun with one run of
// the whole window), not a per-step mean: AllocsPerRun integer-divides its
// count by the number of runs, so a per-step mean truncates away an
// allocation on the ocean call or the radiation step, which fire on one
// step in OceanEvery and RadiationEvery.
func TestCoupledStepAllocs(t *testing.T) {
	names := allocScenarios()
	for _, tc := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"pooled", 0}, // GOMAXPROCS workers
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, name := range names {
				t.Run(name, func(t *testing.T) {
					cfg, err := ScenarioConfig(name)
					if err != nil {
						t.Fatal(err)
					}
					cfg.Workers = tc.workers
					m, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					defer m.Close()
					m.StepDays(1) // warm every lazily-built workspace and code path
					w := allocWindow(cfg)
					n := testing.AllocsPerRun(1, func() {
						for i := 0; i < w; i++ {
							m.Step()
						}
					})
					if n != 0 {
						t.Errorf("%d coupled steps allocate %.0f times, want 0", w, n)
					}
				})
			}
		})
	}

	// The same gate through the ensemble scheduler: a member advanced over
	// the worker pool must not allocate either — the advance path (queue
	// handoff, worker pickup, runSteps, completion signal) reuses the
	// member's done channel and the preallocated pending queue, and shared
	// tables mean no per-member workspace is rebuilt. AllocsPerRun counts
	// mallocs across all goroutines, so the worker-side stepping is inside
	// the measurement, channel round-trip and goroutine park/unpark
	// included.
	t.Run("ensemble", func(t *testing.T) {
		for _, name := range names {
			t.Run(name, func(t *testing.T) {
				s := ensemble.New(ensemble.Config{Workers: 2, MaxMembers: 4})
				defer s.Close()
				cfg, err := ScenarioConfig(name)
				if err != nil {
					t.Fatal(err)
				}
				info, err := s.Create(cfg, nil)
				if err != nil {
					t.Fatal(err)
				}
				warm := int(86400 / cfg.Atm.Dt) // one simulated day, as above
				if _, err := s.AdvanceSteps(info.ID, warm); err != nil {
					t.Fatal(err)
				}
				w := allocWindow(cfg)
				n := testing.AllocsPerRun(1, func() {
					for i := 0; i < w; i++ {
						if _, err := s.AdvanceSteps(info.ID, 1); err != nil {
							t.Fatal(err)
						}
					}
				})
				if n != 0 {
					t.Errorf("%d ensemble-scheduled steps allocate %.0f times, want 0", w, n)
				}
			})
		}
	})
}
