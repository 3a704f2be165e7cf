package seaice

import (
	"math"
	"testing"
)

func coldInput() Input {
	return Input{
		SWDown: 20, LWDown: 180,
		TAir: 255, QAir: 0.0008,
		UAir: 6, VAir: -2,
		Ps: 1.0e5, ZRef: 60,
	}
}

func TestFormationFromOceanFreeze(t *testing.T) {
	m := New(4)
	if m.Present(0) {
		t.Fatal("new model should be ice free")
	}
	in := coldInput()
	in.OceanFreeze = 1e-4
	m.Step(0, in, 21600)
	if !m.Present(0) {
		t.Fatal("freezing flux should create ice")
	}
	if m.Coverage() != 0.25 {
		t.Fatalf("coverage %v want 0.25", m.Coverage())
	}
}

func TestStressDividedBy15(t *testing.T) {
	m := New(1)
	m.Thick[0] = 1
	in := coldInput()
	out := m.Step(0, in, 1800)
	if out.TauXAtm == 0 {
		t.Fatal("no stress on the atmosphere")
	}
	if math.Abs(out.TauXOcean-out.TauXAtm/StressDivisor) > 1e-15 {
		t.Fatalf("ocean stress %v should be atm stress %v / 15", out.TauXOcean, out.TauXAtm)
	}
	if math.Abs(out.TauYOcean-out.TauYAtm/StressDivisor) > 1e-15 {
		t.Fatal("meridional stress not divided")
	}
}

func TestIceAlbedoAndTemperatureRange(t *testing.T) {
	m := New(1)
	m.Thick[0] = 0.5
	in := coldInput()
	for s := 0; s < 200; s++ {
		out := m.Step(0, in, 1800)
		if out.Albedo != IceAlbedo {
			t.Fatalf("albedo %v", out.Albedo)
		}
		if out.TSurf > 273.15+1e-9 {
			t.Fatalf("ice surface above freezing: %v", out.TSurf)
		}
		if out.TSurf < 200 {
			t.Fatalf("ice surface unreasonably cold: %v", out.TSurf)
		}
	}
}

// TestSurfaceMeltReleasesWater melts ice under warm forcing and keeps a
// mass ledger on every step while ice is present: the thickness lost, as
// water, equals what the step reports leaving the ice, (MeltWater +
// Evap)·dt, in kg/m^2.
func TestSurfaceMeltReleasesWater(t *testing.T) {
	m := New(1)
	m.Thick[0] = 0.2
	m.TSurf[0] = 272
	in := coldInput()
	in.TAir = 285
	in.SWDown = 600
	in.LWDown = 340
	const dt = 1800.0
	var melt float64
	for s := 0; s < 100 && m.Present(0); s++ {
		h := m.Thick[0]
		out := m.Step(0, in, dt)
		melt += out.MeltWater
		lost, released := (h-m.Thick[0])*RhoWater, (out.MeltWater+out.Evap)*dt
		if math.Abs(lost-released) > 1e-12 {
			t.Fatalf("step %d: ice lost %v kg/m^2 but released %v (melt %v, evap %v kg/m^2/s)",
				s, lost, released, out.MeltWater, out.Evap)
		}
	}
	if melt <= 0 {
		t.Fatal("warm forcing should melt ice")
	}
	if m.Thick[0] >= 0.2 {
		t.Fatalf("thickness did not decrease: %v", m.Thick[0])
	}
}

func TestBasalMelt(t *testing.T) {
	m := New(1)
	m.Thick[0] = 0.5
	if m.BasalMelt(0, -1.92, 21600) != 0 {
		t.Fatal("no basal melt at the freezing point")
	}
	melt := m.BasalMelt(0, 2.0, 21600)
	if melt <= 0 {
		t.Fatal("warm water should melt the ice base")
	}
	if m.Thick[0] >= 0.5 {
		t.Fatal("basal melt should thin the ice")
	}
	// The returned flux over the step is the ice it removed, as water.
	if lost, released := (0.5-m.Thick[0])*RhoWater, melt*21600; math.Abs(lost-released) > 1e-12 {
		t.Fatalf("basal melt removed %v kg/m^2 of ice but returned %v", lost, released)
	}
	// Ice-free cells never melt.
	if m.BasalMelt(0, 5, 1e9) < 0 {
		t.Fatal("negative melt")
	}
}

func TestSnowAccretesOntoIce(t *testing.T) {
	m := New(1)
	m.Thick[0] = 0.1
	in := coldInput()
	in.Snowfall = 1e-3
	h0 := m.Thick[0]
	m.Step(0, in, 21600)
	if m.Thick[0] <= h0 {
		t.Fatal("snowfall should thicken the ice")
	}
}

func TestOpenWaterOutput(t *testing.T) {
	m := New(1)
	in := coldInput()
	out := m.Step(0, in, 1800)
	if out.Albedo != 0.07 {
		t.Fatalf("open water albedo %v", out.Albedo)
	}
	if out.TauXAtm != 0 || out.Sensible != 0 {
		t.Fatal("ice-free cell should not produce ice fluxes")
	}
}

func TestAdvectConservesIceVolume(t *testing.T) {
	nlat, nlon := 8, 8
	n := nlat * nlon
	m := New(n)
	mask := make([]float64, n)
	u := make([]float64, n)
	v := make([]float64, n)
	dx := make([]float64, nlat)
	dy := make([]float64, nlat)
	cosl := make([]float64, nlat)
	for j := 0; j < nlat; j++ {
		dx[j] = 1e5
		dy[j] = 1e5
		cosl[j] = 1 // uniform metric: conservation is exact cellwise
	}
	for c := 0; c < n; c++ {
		mask[c] = 1
		u[c] = 0.4
		v[c] = -0.2
	}
	m.Thick[3*nlon+3] = 1.5
	m.Thick[3*nlon+4] = 0.8
	before := 0.0
	for _, h := range m.Thick {
		before += h
	}
	for s := 0; s < 50; s++ {
		m.Advect(u, v, mask, dx, dy, cosl, nlat, nlon, 21600)
	}
	after := 0.0
	for _, h := range m.Thick {
		after += h
	}
	if math.Abs(after-before) > 1e-12*before {
		t.Fatalf("ice volume changed: %v -> %v", before, after)
	}
	// The ice should have moved east (u > 0): center of mass shifts.
	var cm float64
	for c, h := range m.Thick {
		cm += float64(c%nlon) * h
	}
	cm /= after
	if cm <= 3.4 {
		t.Fatalf("ice did not drift east: center of mass at column %v", cm)
	}
}

func TestAdvectRespectsCoasts(t *testing.T) {
	nlat, nlon := 6, 6
	n := nlat * nlon
	m := New(n)
	mask := make([]float64, n)
	u := make([]float64, n)
	v := make([]float64, n)
	dx := []float64{1e5, 1e5, 1e5, 1e5, 1e5, 1e5}
	dy := []float64{1e5, 1e5, 1e5, 1e5, 1e5, 1e5}
	cosl := []float64{1, 1, 1, 1, 1, 1}
	// Wet only in a 2x2 pocket; strong outward flow.
	for _, c := range []int{2*nlon + 2, 2*nlon + 3, 3*nlon + 2, 3*nlon + 3} {
		mask[c] = 1
		u[c] = 2
		v[c] = 2
		m.Thick[c] = 1
	}
	for s := 0; s < 30; s++ {
		m.Advect(u, v, mask, dx, dy, cosl, nlat, nlon, 21600)
	}
	for c := 0; c < n; c++ {
		if mask[c] == 0 && m.Thick[c] != 0 {
			t.Fatalf("ice leaked onto land at %d: %v", c, m.Thick[c])
		}
	}
}
