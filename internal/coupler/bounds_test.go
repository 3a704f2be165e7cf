package coupler

import "testing"

// TestFluxBoundsPinned pins the clampStress/clampHeat flux bounds: the
// value, its unit, and the physical argument for the magnitude. Changing
// a bound (or its unit) must be a deliberate act that updates this table
// too.
func TestFluxBoundsPinned(t *testing.T) {
	bounds := []struct {
		name string
		got  float64
		want float64
		unit string
		why  string
	}{
		{
			name: "MaxStressIntoOcean",
			got:  MaxStressIntoOcean,
			want: 2.0,
			unit: "N/m^2",
			why:  "hurricane-force wind stress saturates near 1.5 N/m^2 (drag-coefficient rolloff), so 2 N/m^2 passes every physical stress and clips only spin-up shocks",
		},
		{
			name: "MaxHeatIntoOcean",
			got:  MaxHeatIntoOcean,
			want: 1500.0,
			unit: "W/m^2",
			why:  "peak observed air-sea heat fluxes (winter cold-air outbreaks over western boundary currents) reach ~1000 W/m^2, so 1500 W/m^2 passes every physical flux and clips only spin-up shocks",
		},
	}
	for _, b := range bounds {
		if b.got != b.want {
			t.Errorf("%s = %g, want %g %s (%s)", b.name, b.got, b.want, b.unit, b.why)
		}
	}

	// The clamps must pass physical magnitudes untouched and bound the
	// unphysical, symmetrically.
	if got := clampStress(1.5, MaxStressIntoOcean); got != 1.5 {
		t.Errorf("clampStress(1.5) = %g, want the physical stress passed through", got)
	}
	if got := clampStress(-7, MaxStressIntoOcean); got != -MaxStressIntoOcean {
		t.Errorf("clampStress(-7) = %g, want -%g", got, MaxStressIntoOcean)
	}
	if got := clampHeat(900, MaxHeatIntoOcean); got != 900 {
		t.Errorf("clampHeat(900) = %g, want the physical flux passed through", got)
	}
	if got := clampHeat(1e4, MaxHeatIntoOcean); got != MaxHeatIntoOcean {
		t.Errorf("clampHeat(1e4) = %g, want %g", got, MaxHeatIntoOcean)
	}
}
