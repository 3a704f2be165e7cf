package ocean

import (
	"math"
	"testing"
)

// coldStart returns a model of mode on the shelf box, its surface cooled
// by 0.5 K per degree poleward of 55 deg (below freezing on the outermost
// open rows), and a forcing with the pinned runs' fluxes plus a band of
// strong cooling, 800 W/m^2 at its centre, around 60 deg.
func coldStart(t *testing.T, mode string) (*Model, *Forcing) {
	t.Helper()
	cfg := boxConfig()
	cfg.Mode = mode
	m, err := New(cfg, shelfKMT(cfg))
	if err != nil {
		t.Fatal(err)
	}
	f := pinnedForcing(m)
	sst := m.SST()
	for c := range sst {
		latDeg := math.Abs(m.grid.Lats[c/cfg.NLon]) * 180 / math.Pi
		f.Heat[c] -= 800 * math.Exp(-math.Pow((latDeg-60)/6, 2))
		if m.kmt[c] > 0 {
			sst[c] -= 0.5 * math.Max(0, latDeg-55)
		}
	}
	m.updateDiagnostics()
	return m, f
}

// TestSlabHeatLedger closes the slab's energy budget on every step: its
// heat content after the step, rho0*cp*TotalHeat, equals the content
// before plus the surface heat flux and the latent heat the freeze clamp
// releases, the sum of (Heat + L_f*iceFlux)*area*dt over the ocean cells,
// to 1e-12 of the larger side. The sides are heat contents, not the step's
// net inflow: that is ~5e-4 of the content here, and the rounding of the
// two TotalHeat sums leaves up to ~6e-15 of the content, so the inflow
// alone closes only to ~1e-11 of itself. A clamp that drops or double-counts the deficit, or a
// TotalHeat that integrates anything but the slab, is off by 1e-4 or more.
func TestSlabHeatLedger(t *testing.T) {
	const lFusion = 3.34e5 // J/kg, the freeze clamp's latent heat
	m, f := coldStart(t, ModeSlab)
	cfg := m.cfg
	froze := false
	for s := 0; s < 12; s++ {
		before := Rho0 * CpOcean * m.Diagnostics().TotalHeat
		m.Step(f)
		in := 0.0
		for j := 1; j < cfg.NLat-1; j++ {
			for i := 0; i < cfg.NLon; i++ {
				if c := j*cfg.NLon + i; m.kmt[c] > 0 {
					in += (f.Heat[c] + lFusion*m.iceFlux[c]) * m.dx[j] * m.dy[j] * cfg.DtTracer
				}
			}
		}
		after := Rho0 * CpOcean * m.Diagnostics().TotalHeat
		scale := math.Max(math.Abs(after), math.Abs(before+in))
		if d := math.Abs(after - (before + in)); d > 1e-12*scale {
			t.Errorf("step %d: heat content %.17g J after, %.17g J before plus %.17g J in (residual %.3g of the larger side)",
				s, after, before, in, d/scale)
		}
		froze = froze || m.Diagnostics().IceFlux > 0
	}
	if !froze {
		t.Fatal("the freeze clamp never fired, so the ledger's latent term went untested")
	}
}

// TestOffOceanHoldsSurface: a prescribed (ModeOff) ocean under non-zero
// forcing keeps its SST and SSS bit for bit, even below freezing, reports
// no ice flux, and holds one level and no dynamics fields.
func TestOffOceanHoldsSurface(t *testing.T) {
	m, f := coldStart(t, ModeOff)
	sst0 := append([]float64(nil), m.SST()...)
	sss0 := append([]float64(nil), m.SSS()...)
	for s := 0; s < 8; s++ {
		m.Step(f)
	}
	for c := range sst0 {
		if math.Float64bits(m.SST()[c]) != math.Float64bits(sst0[c]) || math.Float64bits(m.SSS()[c]) != math.Float64bits(sss0[c]) {
			t.Fatalf("cell %d: SST/SSS moved from %v/%v to %v/%v", c, sst0[c], sss0[c], m.SST()[c], m.SSS()[c])
		}
		if m.IceFormation()[c] != 0 {
			t.Fatalf("cell %d: ice formation %v, want 0", c, m.IceFormation()[c])
		}
	}
	if d := m.Diagnostics(); d.IceFlux != 0 || d.MaxSpeed != 0 || d.MeanKE != 0 || d.MeanEta != 0 {
		t.Errorf("diagnostics %+v, want no ice flux, currents or free surface", d)
	}
	s := m.Snapshot()
	if len(s.T) != 1 || len(s.S) != 1 || s.U != nil || s.V != nil || s.Eta != nil || s.Ubt != nil || s.Vbt != nil {
		t.Errorf("snapshot holds %d/%d T/S levels, U %v V %v Eta %v Ubt %v Vbt %v; want one level and no dynamics",
			len(s.T), len(s.S), s.U != nil, s.V != nil, s.Eta != nil, s.Ubt != nil, s.Vbt != nil)
	}
}
