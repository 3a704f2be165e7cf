package atmos

import (
	"math"
	"testing"

	"foam/internal/spectral"
)

// smallConfig is a cheap configuration for unit tests: R5 on its matched
// grid with 8 levels.
func smallConfig() Config {
	c := ConfigForTruncation(spectral.Rhomboidal(5), 8)
	return c
}

func TestRestingIsothermalStaysAtRest(t *testing.T) {
	cfg := smallConfig()
	cfg.Adiabatic = true
	m, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.SetIsothermal(TRef)
	for s := 0; s < 20; s++ {
		m.Step()
	}
	u, v := m.GridWinds(cfg.NLev / 2)
	for c := range u {
		if math.Abs(u[c]) > 1e-8 || math.Abs(v[c]) > 1e-8 {
			t.Fatalf("resting state generated wind %v %v at %d", u[c], v[c], c)
		}
	}
	tg := m.GridTemperature(cfg.NLev / 2)
	for c := range tg {
		if math.Abs(tg[c]-TRef) > 1e-6 {
			t.Fatalf("isothermal state drifted to %v", tg[c])
		}
	}
	ps := m.GridPs()
	for c := range ps {
		if math.Abs(ps[c]-P00) > 1e-3 {
			t.Fatalf("surface pressure drifted to %v", ps[c])
		}
	}
}

// An adiabatic run from a baroclinic initial state must conserve global
// mean surface pressure (mass) closely and remain numerically stable.
func TestAdiabaticMassConservation(t *testing.T) {
	cfg := smallConfig()
	cfg.Adiabatic = true
	m, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ps0 := m.grid.AreaMean(m.GridPs())
	steps := int(2 * 86400 / cfg.Dt) // two simulated days
	for s := 0; s < steps; s++ {
		m.Step()
	}
	ps1 := m.grid.AreaMean(m.GridPs())
	if rel := math.Abs(ps1-ps0) / ps0; rel > 2e-3 {
		t.Fatalf("mass drifted by %.2e over two days", rel)
	}
	if m.Diagnostics().MaxWind > 150 {
		t.Fatalf("adiabatic run unstable: max wind %v", m.Diagnostics().MaxWind)
	}
}

// Geostrophic spin-up: from a resting state with a temperature gradient the
// dynamics must generate winds (thermal wind) without blowing up.
func TestBaroclinicSpinUpBounded(t *testing.T) {
	cfg := smallConfig()
	cfg.Adiabatic = true
	m, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	steps := int(86400 / cfg.Dt)
	for s := 0; s < steps; s++ {
		m.Step()
	}
	d := m.Diagnostics()
	if d.MaxWind <= 0.01 {
		t.Fatalf("no circulation developed: max wind %v", d.MaxWind)
	}
	if d.MaxWind > 200 {
		t.Fatalf("unstable: max wind %v", d.MaxWind)
	}
	if d.MeanT < 200 || d.MeanT > 320 {
		t.Fatalf("mean temperature out of range: %v", d.MeanT)
	}
}

// Full physics one-day smoke test over a uniform ocean.
func TestFullPhysicsDayBounded(t *testing.T) {
	cfg := smallConfig()
	m, err := New(cfg, NewUniformOcean(295))
	if err != nil {
		t.Fatal(err)
	}
	steps := int(86400 / cfg.Dt)
	for s := 0; s < steps; s++ {
		m.Step()
		d := m.Diagnostics()
		if math.IsNaN(d.MeanT) || d.MeanT < 150 || d.MeanT > 350 {
			t.Fatalf("step %d: mean T %v out of range", s, d.MeanT)
		}
		if d.MaxWind > 250 {
			t.Fatalf("step %d: max wind %v", s, d.MaxWind)
		}
	}
	d := m.Diagnostics()
	if d.MeanPs < 9e4 || d.MeanPs > 1.1e5 {
		t.Fatalf("mean ps %v", d.MeanPs)
	}
	// Over a warm uniform ocean there must be evaporation.
	if d.EvapMean <= 0 {
		t.Fatalf("no evaporation: %v", d.EvapMean)
	}
}

func TestVGridStructure(t *testing.T) {
	v := NewVGrid(18, 0.004)
	if v.Half[0] != 0.004 || v.Half[18] != 1 {
		t.Fatalf("half level endpoints %v %v", v.Half[0], v.Half[18])
	}
	sum := 0.0
	for k := 0; k < 18; k++ {
		if v.DSig[k] <= 0 {
			t.Fatalf("nonpositive layer %d", k)
		}
		if v.Full[k] <= v.Half[k] || v.Full[k] >= v.Half[k+1] {
			t.Fatalf("full level %d outside its layer", k)
		}
		sum += v.DSig[k]
	}
	if math.Abs(sum-(1-0.004)) > 1e-12 {
		t.Fatalf("layer thicknesses sum to %v", sum)
	}
}

func TestGeopotentialIsothermal(t *testing.T) {
	v := NewVGrid(10, 0.01)
	T := make([]float64, 10)
	for k := range T {
		T[k] = 250
	}
	phi := make([]float64, 10)
	v.Geopotential(phi, T, 1234)
	// Isothermal: phi = phiS + R*T*ln(1/sigma).
	for k := 0; k < 10; k++ {
		want := 1234 + RDry*250*math.Log(1/v.Full[k])
		if math.Abs(phi[k]-want) > 1e-6*want {
			t.Fatalf("phi[%d] = %v want %v", k, phi[k], want)
		}
	}
}

func TestLUSolver(t *testing.T) {
	m := [][]float64{
		{2, 1, 0},
		{1, 3, 1},
		{0, 1, 4},
	}
	l := newLU(m)
	b := []float64{3, 5, 6}
	l.solve(b)
	// Verify A x = b0.
	want := []float64{3, 5, 6}
	for i := 0; i < 3; i++ {
		got := 0.0
		for j := 0; j < 3; j++ {
			got += m[i][j] * b[j]
		}
		if math.Abs(got-want[i]) > 1e-12 {
			t.Fatalf("LU solve row %d: %v want %v", i, got, want[i])
		}
	}
}

func TestLUSolverNeedsPivoting(t *testing.T) {
	m := [][]float64{
		{0, 1},
		{1, 0},
	}
	l := newLU(m)
	b := []float64{7, 9}
	l.solve(b)
	if b[0] != 9 || b[1] != 7 {
		t.Fatalf("pivoted solve wrong: %v", b)
	}
}

func TestTriDiag(t *testing.T) {
	// Solve a 4x4 diffusion-like system and verify by multiplication.
	sub := []float64{0, -1, -1, -1}
	diag := []float64{3, 3, 3, 3}
	sup := []float64{-1, -1, -1, 0}
	rhs := []float64{1, 2, 3, 4}
	x := append([]float64(nil), rhs...)
	// TriDiag clobbers sup with the forward-sweep coefficients; verify
	// against a copy.
	TriDiag(sub, diag, append([]float64(nil), sup...), x)
	for i := 0; i < 4; i++ {
		got := diag[i] * x[i]
		if i > 0 {
			got += sub[i] * x[i-1]
		}
		if i < 3 {
			got += sup[i] * x[i+1]
		}
		if math.Abs(got-rhs[i]) > 1e-12 {
			t.Fatalf("tridiag row %d: %v want %v", i, got, rhs[i])
		}
	}
}

func TestSatHumMonotone(t *testing.T) {
	p := 1e5
	prev := 0.0
	for temp := 230.0; temp <= 310; temp += 5 {
		q := SatHum(temp, p)
		if q <= prev {
			t.Fatalf("SatHum not increasing at %v", temp)
		}
		prev = q
	}
	// Sanity: ~14 g/kg at 293 K, 1000 hPa (within a factor).
	q := SatHum(293.15, 1e5)
	if q < 0.010 || q > 0.020 {
		t.Fatalf("SatHum(293K) = %v", q)
	}
}

func TestBulkCoefficientsStability(t *testing.T) {
	cdN, _ := BulkCoefficients(50, 1e-4, 0)
	cdU, _ := BulkCoefficients(50, 1e-4, -1)
	cdS, _ := BulkCoefficients(50, 1e-4, 0.1)
	if !(cdU > cdN && cdN > cdS) {
		t.Fatalf("stability ordering broken: unstable %v neutral %v stable %v", cdU, cdN, cdS)
	}
	cdVS, _ := BulkCoefficients(50, 1e-4, 5)
	if cdVS >= cdS {
		t.Fatalf("very stable should be smallest: %v vs %v", cdVS, cdS)
	}
}

func TestOceanRoughnessWindDependence(t *testing.T) {
	if OceanRoughness(25) <= OceanRoughness(5) {
		t.Fatal("CCM3 roughness should grow with wind")
	}
}

func TestInterpLatLon(t *testing.T) {
	lats := []float64{-0.6, -0.2, 0.2, 0.6}
	nlon := 4
	f := make([]float64, 16)
	for j := 0; j < 4; j++ {
		for i := 0; i < nlon; i++ {
			f[j*nlon+i] = float64(j) // varies with latitude only
		}
	}
	if got := interpLatLon(f, lats, nlon, 0.0, 1.0); math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("midpoint interp %v want 1.5", got)
	}
	if got := interpLatLon(f, lats, nlon, -2, 0); got != 0 {
		t.Fatalf("south clamp %v", got)
	}
	if got := interpLatLon(f, lats, nlon, 2, 0); got != 3 {
		t.Fatalf("north clamp %v", got)
	}
	// Longitude periodicity.
	for i := 0; i < nlon; i++ {
		f[2*nlon+i] = float64(i)
	}
	got := interpLatLon(f, lats, nlon, 0.2, 2*math.Pi-math.Pi/4)
	want := 1.5 // halfway between f=3 (i=3) and f=0 (i=0)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("periodic interp %v want %v", got, want)
	}
}

func TestConfigValidation(t *testing.T) {
	c := DefaultConfig()
	if err := c.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := c
	bad.NLon = 20 // cannot resolve M=15
	if bad.Validate() == nil {
		t.Fatal("expected nlon validation failure")
	}
	bad = c
	bad.Dt = -1
	if bad.Validate() == nil {
		t.Fatal("expected dt validation failure")
	}
}

func TestConfigForTruncationCostLaw(t *testing.T) {
	c5 := ConfigForTruncation(spectral.Rhomboidal(5), 8)
	c15 := ConfigForTruncation(spectral.Rhomboidal(15), 8)
	if c5.Dt <= c15.Dt {
		t.Fatal("coarser truncation should take longer steps")
	}
	if c15.NLat != 40 || c15.NLon != 48 {
		t.Fatalf("R15 grid %dx%d", c15.NLat, c15.NLon)
	}
}

// A Rossby-Haurwitz-like wave (zonal wavenumber 4 vorticity pattern) must
// keep its zonal-wavenumber-4 identity under the adiabatic dynamics: the
// spectral dycore should propagate, not destroy, large-scale Rossby waves.
func TestRossbyWaveIntegrity(t *testing.T) {
	cfg := ConfigForTruncation(spectral.Rhomboidal(8), 6)
	cfg.Adiabatic = true
	m, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.SetIsothermal(TRef)
	// Plant a wavenumber-4 vorticity pattern at every level.
	idx := cfg.Trunc.Index(4, 6)
	for k := 0; k < cfg.NLev; k++ {
		m.cur.vort[k][idx] = complex(2e-5, 1e-5)
	}
	m.old.copyFrom(m.cur)

	wave4Power := func() (p4, pTot float64) {
		for mm := 1; mm <= cfg.Trunc.M; mm++ {
			for n := mm; n <= mm+cfg.Trunc.K; n++ {
				c := m.cur.vort[cfg.NLev/2][cfg.Trunc.Index(mm, n)]
				pw := real(c)*real(c) + imag(c)*imag(c)
				pTot += pw
				if mm == 4 {
					p4 += pw
				}
			}
		}
		return
	}
	p40, _ := wave4Power()
	steps := int(5 * 86400 / cfg.Dt)
	for s := 0; s < steps; s++ {
		m.Step()
	}
	p4, pTot := wave4Power()
	if pTot <= 0 || p4/pTot < 0.8 {
		t.Fatalf("wave-4 lost its identity: fraction %v", p4/pTot)
	}
	if p4 < 0.2*p40 || p4 > 2*p40 {
		t.Fatalf("wave-4 amplitude drifted: %v -> %v", p40, p4)
	}
	// The wave must actually propagate: the phase of the planted
	// coefficient should have rotated.
	c := m.cur.vort[cfg.NLev/2][idx]
	phase0 := math.Atan2(1e-5, 2e-5)
	phase1 := math.Atan2(imag(c), real(c))
	if math.Abs(phase1-phase0) < 0.05 {
		t.Fatalf("wave did not propagate: phase %v -> %v", phase0, phase1)
	}
}

// Geostrophic adjustment: an unbalanced pressure (temperature) anomaly in a
// rotating atmosphere must radiate gravity waves and settle toward balance
// rather than grow; total energy must not increase in the adiabatic core.
func TestGeostrophicAdjustmentBounded(t *testing.T) {
	cfg := ConfigForTruncation(spectral.Rhomboidal(5), 6)
	cfg.Adiabatic = true
	m, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.SetIsothermal(TRef)
	// Warm anomaly in mid-latitudes.
	grid := make([]float64, m.grid.Size())
	for j := 0; j < cfg.NLat; j++ {
		for i := 0; i < cfg.NLon; i++ {
			lam := 2 * math.Pi * float64(i) / float64(cfg.NLon)
			mu := m.geom.mu[j]
			grid[j*cfg.NLon+i] = 5 * math.Exp(-((mu-0.5)*(mu-0.5))/0.05) * math.Cos(2*lam)
		}
	}
	spec := m.tr.Analyze(grid)
	for k := 0; k < cfg.NLev; k++ {
		for i, v := range spec {
			m.cur.temp[k][i] += v
		}
	}
	m.old.copyFrom(m.cur)
	steps := int(3 * 86400 / cfg.Dt)
	maxWind := 0.0
	for s := 0; s < steps; s++ {
		m.Step()
		if w := m.Diagnostics().MaxWind; w > maxWind {
			maxWind = w
		}
	}
	if maxWind > 80 {
		t.Fatalf("adjustment produced runaway winds: %v", maxWind)
	}
	if maxWind < 0.5 {
		t.Fatalf("anomaly produced no motion: %v", maxWind)
	}
	d := m.Diagnostics()
	if math.Abs(d.MeanT-TRef) > 1 {
		t.Fatalf("adiabatic adjustment changed mean temperature: %v", d.MeanT)
	}
}
