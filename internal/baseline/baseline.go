// Package baseline provides the conventional comparator for FOAM's speed
// claims (experiments E5, E7 and E10): the same ocean physics integrated
// the conventional way — no barotropic/baroclinic splitting, physical
// gravity, and a single time step limited by the external gravity wave —
// standing in for the contemporary models (and the NCAR CSM) the paper
// compares against.
//
// The integration itself is deterministic; the wall-clock reads in the
// timing harness are the measurement and never reach model state.
package baseline

import (
	"time"

	"foam/internal/ocean"
)

// OceanSecondsPerDay measures the wall-clock cost of one simulated day for
// an ocean configuration by running sample steps and extrapolating by the
// step count per day. kmt may be nil for an all-ocean domain.
func OceanSecondsPerDay(cfg ocean.Config, kmt []int, sampleSteps int) (float64, error) {
	m, err := ocean.New(cfg, kmt)
	if err != nil {
		return 0, err
	}
	n := cfg.NLat * cfg.NLon
	f := ocean.NewForcing(n)
	// Warm up one step (allocations, caches).
	m.Step(f)
	t0 := time.Now()
	for s := 0; s < sampleSteps; s++ {
		m.Step(f)
	}
	per := time.Since(t0).Seconds() / float64(sampleSteps)
	stepsPerDay := 86400 / cfg.DtTracer
	return per * stepsPerDay, nil
}

// SpeedAdvantage returns the ratio of baseline to FOAM cost per simulated
// day at the same resolution — the paper's "roughly tenfold increase in the
// amount of simulated time represented per unit of computation".
func SpeedAdvantage(foamCfg ocean.Config, kmt []int, sampleSteps int) (foamSec, baseSec, ratio float64, err error) {
	foamSec, err = OceanSecondsPerDay(foamCfg, kmt, sampleSteps)
	if err != nil {
		return
	}
	base := ocean.BaselineConfig()
	base.NLat, base.NLon, base.NLev = foamCfg.NLat, foamCfg.NLon, foamCfg.NLev
	base.LatSouth, base.LatNorth = foamCfg.LatSouth, foamCfg.LatNorth
	base.TotalDepth = foamCfg.TotalDepth
	baseSec, err = OceanSecondsPerDay(base, kmt, sampleSteps)
	if err != nil {
		return
	}
	ratio = baseSec / foamSec
	return
}
