package foam

import (
	"testing"

	"foam/internal/ensemble"
)

// TestCoupledStepAllocs is the allocation-regression gate for the coupled
// hot path: after construction and a one-day warmup, the steady-state
// coupled step must not allocate — including the steps that fire the
// multi-rate ocean call, the forcing drain, river routing, and sea-ice
// coupling. Every per-step buffer lives in construction-time workspaces
// (see DESIGN.md), so a nonzero reading here means a hot-path make or an
// escaping closure crept back in.
//
// The budget of 10 allocations per step (target and measured value: 0)
// absorbs incidental runtime activity without letting a real regression
// through: any reintroduced per-step buffer costs at least one allocation
// on every step, and an escaping closure in a pool phase costs one per
// pool.Run call site.
func TestCoupledStepAllocs(t *testing.T) {
	cases := []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"pooled", 0}, // GOMAXPROCS workers
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := quickConfig(t)
			cfg.Workers = tc.workers
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			m.StepDays(1) // warm every lazily-built workspace and code path

			// 25 measured steps cover two full ocean-coupling cycles
			// (OceanEvery steps apart), so the drain/ocean/absorb path is
			// inside the measurement window, not just the cheap
			// atmosphere-only steps.
			n := testing.AllocsPerRun(24, func() { m.Step() })
			t.Logf("%s: %.1f allocs per coupled step", tc.name, n)
			if n > 10 {
				t.Errorf("coupled step allocates %.1f times per step, want <= 10 (target 0)", n)
			}
		})
	}

	// The same gate through the ensemble scheduler: a member advanced over
	// the worker pool must not allocate per step either — the advance path
	// (queue handoff, worker pickup, runSteps, completion signal) reuses the
	// member's done channel and the preallocated pending queue, and shared
	// tables mean no per-member workspace is rebuilt. AllocsPerRun counts
	// mallocs across all goroutines, so the worker-side stepping is inside
	// the measurement. The budget is the coupled-step budget plus a small
	// headroom for the runtime's goroutine park/unpark machinery on the
	// channel round-trip.
	t.Run("ensemble", func(t *testing.T) {
		s := ensemble.New(ensemble.Config{Workers: 2, MaxMembers: 4})
		defer s.Close()
		cfg := quickConfig(t)
		info, err := s.Create(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		warm := int(86400 / cfg.Atm.Dt) // one simulated day, as above
		if _, err := s.AdvanceSteps(info.ID, warm); err != nil {
			t.Fatal(err)
		}
		n := testing.AllocsPerRun(24, func() {
			if _, err := s.AdvanceSteps(info.ID, 1); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("ensemble: %.1f allocs per scheduled step", n)
		if n > 12 {
			t.Errorf("ensemble-scheduled step allocates %.1f times per step, want <= 12 (target 0)", n)
		}
	})
}
