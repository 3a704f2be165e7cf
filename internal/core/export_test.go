package core

import (
	"testing"

	"foam/internal/mp"
)

// The replay behind RunTraced, driven with synthetic costs for the external
// tests (traced_pinned_test.go), which build their configurations from the
// scenario registry: it imports core, so this package's own tests cannot.

// syntheticCosts is the pinned test's stand-in for the measured per-step
// costs: a fixed function of (tick, component, latitude row) in exact
// integer-valued arithmetic — no wall clock, no transcendental functions —
// laid out like the cost model's staging vectors. The ocean call is sized
// so that it keeps up with the atmosphere on some layouts and is the
// bottleneck on others, so both kinds of coupling wait are in the timeline.
func syntheticCosts(tick, ci, nlat int) []float64 {
	if ci == 1 {
		return []float64{float64(40+(tick*5)%17) * 1e-3}
	}
	c := make([]float64, 3+nlat)
	c[0] = float64(3+(tick*7)%5) * 1e-4  // per-row dynamics + moisture
	c[1] = float64(2+(tick*3)%4) * 2e-4  // replicated semi-implicit solve
	c[2] = float64(5+(tick*11)%7) * 4e-4 // coupler boundary work
	for j := 0; j < nlat; j++ {
		c[3+j] = float64(1+(tick*13+j*29)%23) * 1e-4 // physics row j
	}
	return c
}

// TracedTimeline returns every rank's segments and final clock for one
// simulated day of cfg replayed on the given layout with synthetic costs.
// Only the program and the cost model's configuration-derived sizes enter
// the timeline, so the model itself is never stepped.
func TracedTimeline(t *testing.T, cfg Config, spec ParallelSpec) (segs [][]mp.Segment, clocks []float64) {
	t.Helper()
	cfg.Workers = 1
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	rp := newReplay(m, spec)
	steps := int(86400 / m.cfg.Atm.Dt)
	for tick := 0; tick < steps; tick++ {
		rp.tick(tick, func(ci int) []float64 { return syntheticCosts(tick, ci, m.cfg.Atm.NLat) })
	}
	rp.shutdown()
	for r := 0; r < rp.mach.Ranks(); r++ {
		segs = append(segs, rp.mach.Segments(r))
		clocks = append(clocks, rp.mach.Clock(r))
	}
	return segs, clocks
}
