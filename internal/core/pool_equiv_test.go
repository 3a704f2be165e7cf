package core_test

import (
	"fmt"
	"foam/internal/core"
	"testing"

	"foam/internal/atmos"
	"foam/internal/ocean"
	"foam/internal/spectral"
)

// asymmetricConfig is a deliberately lopsided coupled configuration (an R4
// atmosphere over a coarse non-square ocean with uneven level counts) so
// the worker-count matrix also covers grids that do not divide evenly into
// blocks.
func asymmetricConfig() core.Config {
	c := core.Config{}
	c.Atm = atmos.ConfigForTruncation(spectral.Rhomboidal(4), 5)
	c.Atm.RadiationEvery = int(43200 / c.Atm.Dt)
	c.Ocn = ocean.DefaultConfig()
	c.Ocn.NLat, c.Ocn.NLon, c.Ocn.NLev = 31, 24, 5
	c.OceanEvery = int(21600 / c.Atm.Dt)
	if c.OceanEvery < 1 {
		c.OceanEvery = 1
	}
	return c
}

// TestWorkersMatchSerial is the tentpole acceptance test: the complete
// coupled model stepped with any worker count must end in a state
// bit-identical (==, not approximately) to the serial run — SST and full
// ocean state, atmosphere spectral state, sea ice, land and river stores.
func TestWorkersMatchSerial(t *testing.T) {
	days := 3.0
	workerCounts := []int{2, 3, 4, 7}
	if testing.Short() {
		days = 1.0
		workerCounts = []int{3}
	}

	cases := []struct {
		name string
		cfg  core.Config
	}{
		{"reduced", scenarioConfig(t, "r5-quick")},
		{"asymmetric", asymmetricConfig()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(workers int) *core.Checkpoint {
				cfg := tc.cfg
				cfg.Workers = workers
				m, err := core.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer m.Close()
				m.StepDays(days)
				return m.Checkpoint()
			}

			ref := run(1)
			for _, workers := range workerCounts {
				got := run(workers)
				compareCheckpoints(t, workers, ref, got)
			}
		})
	}
}

// compareCheckpoints requires exact equality of every prognostic field.
func compareCheckpoints(t *testing.T, workers int, ref, got *core.Checkpoint) {
	t.Helper()
	fail := func(section string, at string) {
		t.Fatalf("workers=%d: %s differs from serial at %s", workers, section, at)
	}
	eqC2 := func(section string, a, b [][]complex128) {
		for k := range a {
			for i := range a[k] {
				if a[k][i] != b[k][i] {
					fail(section, fmt.Sprintf("level %d coef %d", k, i))
				}
			}
		}
	}
	eqF2 := func(section string, a, b [][]float64) {
		for k := range a {
			for i := range a[k] {
				if a[k][i] != b[k][i] {
					fail(section, fmt.Sprintf("level %d cell %d", k, i))
				}
			}
		}
	}
	eqF := func(section string, a, b []float64) {
		for i := range a {
			if a[i] != b[i] {
				fail(section, fmt.Sprintf("cell %d", i))
			}
		}
	}

	// Atmosphere: the three-time-level spectral state plus grid moisture
	// and surface exchange mirrors.
	eqC2("atm vorticity", ref.Atm.VortC, got.Atm.VortC)
	eqC2("atm divergence", ref.Atm.DivC, got.Atm.DivC)
	eqC2("atm temperature", ref.Atm.TempC, got.Atm.TempC)
	eqC2("atm vorticity (old)", ref.Atm.VortO, got.Atm.VortO)
	eqC2("atm divergence (old)", ref.Atm.DivO, got.Atm.DivO)
	eqC2("atm temperature (old)", ref.Atm.TempO, got.Atm.TempO)
	eqF2("atm moisture", ref.Atm.Q, got.Atm.Q)
	eqF("atm rain", ref.Atm.Rain, got.Atm.Rain)
	for i := range ref.Atm.LnpsC {
		if ref.Atm.LnpsC[i] != got.Atm.LnpsC[i] || ref.Atm.LnpsO[i] != got.Atm.LnpsO[i] {
			fail("atm ln(ps)", fmt.Sprintf("coef %d", i))
		}
	}

	// Ocean: tracers, 3-D and barotropic velocities, free surface, SST is
	// T[0].
	eqF2("ocean temperature", ref.Ocn.T, got.Ocn.T)
	eqF2("ocean salinity", ref.Ocn.S, got.Ocn.S)
	eqF2("ocean u", ref.Ocn.U, got.Ocn.U)
	eqF2("ocean v", ref.Ocn.V, got.Ocn.V)
	eqF("ocean eta", ref.Ocn.Eta, got.Ocn.Eta)
	eqF("ocean ubt", ref.Ocn.Ubt, got.Ocn.Ubt)
	eqF("ocean vbt", ref.Ocn.Vbt, got.Ocn.Vbt)
	eqF("ocean ice flux", ref.Ocn.IceFlux, got.Ocn.IceFlux)

	// Sea ice, land and rivers.
	eqF("ice thickness", ref.IceThick, got.IceThick)
	eqF("ice surface temperature", ref.IceTSurf, got.IceTSurf)
	for i := range ref.LandT {
		if ref.LandT[i] != got.LandT[i] {
			fail("land temperature", fmt.Sprintf("cell %d", i))
		}
	}
	eqF("land water", ref.LandWater, got.LandWater)
	eqF("land snow", ref.LandSnow, got.LandSnow)
	eqF("river volume", ref.RiverVol, got.RiverVol)

	// Scheduler phase: mid-interval flux accumulators and the coupler's
	// mirrored ocean surface.
	if ref.AccSteps != got.AccSteps {
		t.Fatalf("workers=%d: accumulated steps %d != %d", workers, got.AccSteps, ref.AccSteps)
	}
	eqF("accumulated wind stress x", ref.AccTauX, got.AccTauX)
	eqF("accumulated wind stress y", ref.AccTauY, got.AccTauY)
	eqF("accumulated heat flux", ref.AccHeat, got.AccHeat)
	eqF("accumulated freshwater flux", ref.AccFW, got.AccFW)
	eqF("accumulated runoff", ref.AccRunoff, got.AccRunoff)
	eqF("coupler SST mirror", ref.CplSST, got.CplSST)
	eqF("coupler ice-formation mirror", ref.CplIceForm, got.CplIceForm)
}
