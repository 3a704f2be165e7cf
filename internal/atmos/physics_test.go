package atmos

import (
	"math"
	"math/rand"
	"testing"

	"foam/internal/spectral"
)

func physModel(t *testing.T) *Model {
	cfg := ConfigForTruncation(spectral.Rhomboidal(5), 8)
	m, err := New(cfg, NewUniformOcean(293))
	if err != nil {
		t.Fatal(err)
	}
	// One step so all physics state (radiation, exchange) is populated.
	m.Step()
	return m
}

func newTestColumn(m *Model, c int) *column {
	col := newColumn(m.cfg.NLev)
	col.load(m, c)
	return col
}

func TestDryAdjustRemovesInstabilityAndConservesEnthalpy(t *testing.T) {
	m := physModel(t)
	col := newTestColumn(m, 10)
	// Make the column absurdly unstable: hot below cold.
	nl := col.nl
	for k := 0; k < nl; k++ {
		col.T[k] = 220 + 10*float64(k) // temperature increasing downward fast
	}
	before := 0.0
	for k := 0; k < nl; k++ {
		before += Cp * col.T[k] * col.dp[k]
	}
	col.dryAdjust()
	after := 0.0
	for k := 0; k < nl; k++ {
		after += Cp * col.T[k] * col.dp[k]
	}
	if rel := math.Abs(after-before) / before; rel > 1e-12 {
		t.Fatalf("dry adjustment changed column enthalpy by %e", rel)
	}
	// Static stability: potential temperature non-increasing downward
	// between adjusted pairs (allow small residual from the two-pass sweep).
	for k := 1; k < nl; k++ {
		thUp := col.T[k-1] * math.Pow(P00/col.p[k-1], Kappa)
		thLow := col.T[k] * math.Pow(P00/col.p[k], Kappa)
		if thLow > thUp+1.0 {
			t.Fatalf("instability survives at %d: %v > %v", k, thLow, thUp)
		}
	}
}

func TestCondensationRemovesSupersaturationReleasesHeat(t *testing.T) {
	m := physModel(t)
	col := newTestColumn(m, 5)
	k := col.nl - 2
	qs := SatHum(col.T[k], col.p[k])
	col.Q[k] = 2 * qs // strongly supersaturated
	t0 := col.T[k]
	m.phy.rain[5] = 0
	m.phy.snow[5] = 0
	col.condensation(m, 5, m.cfg.Dt)
	if col.Q[k] > SatHum(col.T[k], col.p[k])*1.01 {
		t.Fatalf("still supersaturated: q=%v qs=%v", col.Q[k], SatHum(col.T[k], col.p[k]))
	}
	if col.T[k] <= t0 {
		t.Fatal("no latent heating from condensation")
	}
	if m.phy.rain[5]+m.phy.snow[5] <= 0 {
		t.Fatal("no precipitation reported")
	}
}

func TestCondensationMoistureEnergyBudget(t *testing.T) {
	m := physModel(t)
	c := 7
	col := newTestColumn(m, c)
	// Supersaturate several layers.
	for k := col.nl / 2; k < col.nl; k++ {
		col.Q[k] = 1.5 * SatHum(col.T[k], col.p[k])
	}
	var qBefore, hBefore float64
	for k := 0; k < col.nl; k++ {
		qBefore += col.Q[k] * col.dp[k] / 9.80616
		hBefore += (Cp*col.T[k] + LVap*col.Q[k]) * col.dp[k] / 9.80616
	}
	m.phy.rain[c] = 0
	m.phy.snow[c] = 0
	col.condensation(m, c, m.cfg.Dt)
	var qAfter, hAfter float64
	for k := 0; k < col.nl; k++ {
		qAfter += col.Q[k] * col.dp[k] / 9.80616
		hAfter += (Cp*col.T[k] + LVap*col.Q[k]) * col.dp[k] / 9.80616
	}
	precip := (m.phy.rain[c] + m.phy.snow[c]) * m.cfg.Dt
	// Water: column loss equals precipitation.
	if rel := math.Abs(qBefore-qAfter-precip) / qBefore; rel > 1e-9 {
		t.Fatalf("moisture budget violated: %e", rel)
	}
	// Moist static energy cp*T + L*q is exactly conserved: the latent heat
	// of every drop that falls was already released into cp*T before it
	// fell (and re-evaporation takes it back symmetrically).
	if rel := math.Abs(hBefore-hAfter) / hBefore; rel > 1e-9 {
		t.Fatalf("energy budget violated: %e", rel)
	}
}

func TestZMDeepConvectionTriggersOnCAPE(t *testing.T) {
	m := physModel(t)
	c := 12
	col := newTestColumn(m, c)
	// Build a very unstable moist column.
	nl := col.nl
	for k := 0; k < nl; k++ {
		col.T[k] = 210 + 90*col.p[k]/col.p[nl-1] // steep lapse
		col.Q[k] = 0.9 * SatHum(col.T[k], col.p[k])
	}
	qPBL := col.Q[nl-1]
	active := col.zmDeep(m, c, m.cfg.Dt)
	if !active {
		t.Fatal("deep convection did not trigger on an unstable column")
	}
	if col.Q[nl-1] >= qPBL {
		t.Fatal("deep convection should dry the boundary layer")
	}
	// A stable column must not trigger.
	col2 := newTestColumn(m, c)
	for k := 0; k < nl; k++ {
		col2.T[k] = 280.0 // isothermal: stable
		col2.Q[k] = 1e-4
	}
	if col2.zmDeep(m, c, m.cfg.Dt) {
		t.Fatal("deep convection triggered on a stable column")
	}
}

func TestRadiationColumnSanity(t *testing.T) {
	m := physModel(t)
	c := m.cfg.NLon*m.cfg.NLat/2 + 3                     // tropical cell
	m.radiationColumn(c, 0.8, newRadScratch(m.cfg.NLev)) // high sun
	if m.phy.swdn[c] <= 0 {
		t.Fatal("no surface shortwave under high sun")
	}
	if m.phy.swdn[c] > SolarConstant {
		t.Fatalf("surface SW exceeds the solar constant: %v", m.phy.swdn[c])
	}
	if m.phy.lwdn[c] < 50 || m.phy.lwdn[c] > 600 {
		t.Fatalf("surface LW down implausible: %v", m.phy.lwdn[c])
	}
	// Night: no shortwave.
	m.radiationColumn(c, 0, newRadScratch(m.cfg.NLev))
	if m.phy.swdn[c] != 0 {
		t.Fatalf("night SW %v", m.phy.swdn[c])
	}
	// Heating rates bounded (|Q| < 100 K/day).
	for k := 0; k < m.cfg.NLev; k++ {
		if q := math.Abs(m.phy.qr[k][c]) * 86400; q > 100 {
			t.Fatalf("radiative heating at level %d: %v K/day", k, q)
		}
	}
}

func TestRadiationGreenhouse(t *testing.T) {
	// More column moisture must increase downward longwave at the surface.
	m := physModel(t)
	c := m.cfg.NLon * m.cfg.NLat / 2
	m.radiationColumn(c, 0, newRadScratch(m.cfg.NLev))
	dry := m.phy.lwdn[c]
	for k := 0; k < m.cfg.NLev; k++ {
		m.phy.qg[k][c] *= 3
	}
	m.radiationColumn(c, 0, newRadScratch(m.cfg.NLev))
	moist := m.phy.lwdn[c]
	if moist <= dry {
		t.Fatalf("greenhouse broken: LW down %v (moist) <= %v (dry)", moist, dry)
	}
}

func TestSurfaceFluxesWarmOceanHeatsAir(t *testing.T) {
	m := physModel(t)
	col := newTestColumn(m, 20)
	kb := col.nl - 1
	t0 := col.T[kb]
	ex := NewSurfaceExchange(m.grid.Size())
	ex.TSurf[20] = t0 + 10
	ex.Sensible[20] = 150
	ex.Evap[20] = 5e-5
	q0 := col.Q[kb]
	col.surfaceAndDiffusion(m, 20, ex, m.cfg.Dt)
	if col.T[kb] <= t0 {
		t.Fatal("sensible heat did not warm the lowest layer")
	}
	if col.Q[kb] <= q0 {
		t.Fatal("evaporation did not moisten the lowest layer")
	}
}

func TestCCM2SkipsDeepConvection(t *testing.T) {
	cfg := ConfigForTruncation(spectral.Rhomboidal(5), 8)
	cfg.Physics = PhysicsCCM2
	m, err := New(cfg, NewUniformOcean(300))
	if err != nil {
		t.Fatal(err)
	}
	m.Step()
	col := newTestColumn(m, 10)
	nl := col.nl
	for k := 0; k < nl; k++ {
		col.T[k] = 210 + 90*col.p[k]/col.p[nl-1]
		col.Q[k] = 0.9 * SatHum(col.T[k], col.p[k])
	}
	if col.convection(m, 10, m.cfg.Dt) {
		t.Fatal("CCM2 configuration must not run the deep scheme")
	}
}

func TestHyperdiffusionDampsSmallScalesOnly(t *testing.T) {
	cfg := ConfigForTruncation(spectral.Rhomboidal(8), 4)
	cfg.Adiabatic = true
	m, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := cfg.Trunc
	s := newSpecState(cfg.NLev, tr.Count())
	low := tr.Index(1, 2)   // large scale
	high := tr.Index(8, 16) // smallest scale
	s.vort[0][low] = 1
	s.vort[0][high] = 1
	if m.phy.w == nil {
		m.phy.w = newWork(m)
	}
	m.applyHyperdiffusion(s, cfg.Dt)
	if math.Abs(real(s.vort[0][low])-1) > 0.05 {
		t.Fatalf("large scale damped too much: %v", s.vort[0][low])
	}
	// Scale selectivity: the smallest scale must be damped far more than
	// the large one (del^4 gives ~(n_high/n_low)^4 contrast).
	if real(s.vort[0][high]) > 0.9 {
		t.Fatalf("small scale not damped enough: %v", s.vort[0][high])
	}
	lowLoss := 1 - real(s.vort[0][low])
	highLoss := 1 - real(s.vort[0][high])
	if highLoss < 20*lowLoss {
		t.Fatalf("diffusion not scale selective: low loss %v high loss %v", lowLoss, highLoss)
	}
}

func TestMoistureAdvectionConservesUnderSolidRotation(t *testing.T) {
	cfg := ConfigForTruncation(spectral.Rhomboidal(5), 6)
	cfg.Adiabatic = true
	m, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.phy.w == nil {
		m.phy.w = newWork(m)
	}
	// Solid-body zonal wind, no vertical motion.
	for k := 0; k < cfg.NLev; k++ {
		for j := 0; j < cfg.NLat; j++ {
			c2 := 1 - m.geom.mu[j]*m.geom.mu[j]
			for i := 0; i < cfg.NLon; i++ {
				c := j*cfg.NLon + i
				m.phy.w.U[k][c] = 30 * c2 // u = 30 m/s * cos(lat)
				m.phy.w.V[k][c] = 0
			}
		}
		for c := range m.phy.w.sdot[k] {
			m.phy.w.sdot[k][c] = 0
		}
	}
	// Moisture blob.
	q0 := make([]float64, m.grid.Size())
	for j := 0; j < cfg.NLat; j++ {
		for i := 0; i < cfg.NLon; i++ {
			c := j*cfg.NLon + i
			m.q[2][c] = 1e-3 * math.Exp(-float64((i-8)*(i-8)+(j-9)*(j-9))/8)
			q0[c] = m.q[2][c]
		}
	}
	before := m.grid.AreaMean(m.q[2])
	for s := 0; s < 40; s++ {
		m.advectMoisture(nil)
	}
	after := m.grid.AreaMean(m.q[2])
	// Semi-Lagrangian interpolation is not exactly conservative; a few
	// percent over 40 steps is the expected regime.
	if rel := math.Abs(after-before) / before; rel > 0.08 {
		t.Fatalf("moisture drifted by %.3f under solid rotation", rel)
	}
	// The blob should have moved, not stayed: correlation with the initial
	// field must drop.
	var num, d1, d2 float64
	mean0, mean1 := before, after
	for c := range q0 {
		a := q0[c] - mean0
		b := m.q[2][c] - mean1
		num += a * b
		d1 += a * a
		d2 += b * b
	}
	if corr := num / math.Sqrt(d1*d2); corr > 0.9 {
		t.Fatalf("blob did not move: correlation %v", corr)
	}
}

// TestPow4ByMultiplication proves the substitution radiationColumn makes:
// (x*x)*(x*x) equals math.Pow(x, 4) bit for bit over the temperature range
// (and well beyond it), so the blackbody emission keeps its rounding.
func TestPow4ByMultiplication(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	check := func(x float64) {
		if got, want := Pow4(x), math.Pow(x, 4); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Pow4(%v) = %v, math.Pow = %v", x, got, want)
		}
	}
	for i := 0; i < 200000; i++ {
		check(150 + 200*rng.Float64())        // the model's temperatures
		check(math.Exp(20*rng.Float64() - 5)) // 0.007 .. 3e6
	}
	for x := 150.0; x <= 350; x = math.Nextafter(x, 400) + 1e-3 {
		check(x)
	}
}

// TestPow3ByMultiplication proves the substitution the land, sea-ice and
// coupler surface balances make for the linearized emission dF/dT:
// x*(x*x) equals math.Pow(x, 3) bit for bit over the surface-temperature
// range (and well beyond it).
func TestPow3ByMultiplication(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	check := func(x float64) {
		if got, want := Pow3(x), math.Pow(x, 3); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Pow3(%v) = %v, math.Pow = %v", x, got, want)
		}
	}
	for i := 0; i < 200000; i++ {
		check(150 + 200*rng.Float64())        // surface temperatures
		check(math.Exp(20*rng.Float64() - 5)) // 0.007 .. 3e6
	}
	for x := 150.0; x <= 350; x = math.Nextafter(x, 400) + 1e-3 {
		check(x)
	}
}

// unsplitSatHum is SatHum as one expression, before the SatVap /
// SatHumFromVap split the coupler evaluates on two grids.
func unsplitSatHum(T, p float64) float64 {
	es := 610.78 * math.Exp(17.269*(T-273.16)/(T-35.86))
	if es > 0.5*p {
		es = 0.5 * p
	}
	return EpsWV * es / (p - (1-EpsWV)*es)
}

// TestSatHumSplit proves the split the coupler makes, the SST's vapour
// pressure once per ocean cell and the pressure cap per overlap piece:
// SatHum and SatHumFromVap(SatVap(T), p) both equal the one-expression
// formula bit for bit, on both sides of the es > p/2 cap.
func TestSatHumSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var capped, free int
	check := func(T, p float64) {
		want := unsplitSatHum(T, p)
		if got := SatHum(T, p); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("SatHum(%v, %v) = %v, unsplit %v", T, p, got, want)
		}
		if got := SatHumFromVap(SatVap(T), p); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("SatHumFromVap(SatVap(%v), %v) = %v, unsplit %v", T, p, got, want)
		}
		if SatVap(T) > 0.5*p {
			capped++
		} else {
			free++
		}
	}
	for i := 0; i < 200000; i++ {
		check(150+250*rng.Float64(), math.Exp(math.Log(100)+rng.Float64()*math.Log(1200))) // 100 Pa .. 1.2e5 Pa
	}
	check(373.15, 1e4) // boiling at 100 hPa: capped
	check(273.15, 1e5)
	if capped == 0 || free == 0 {
		t.Fatalf("es > p/2 branch hit %d times, other branch %d: want both", capped, free)
	}
}

// unsplitBulkCoefficients is BulkCoefficients as one expression, before
// the NeutralCoefficient x StabilityFactor split.
func unsplitBulkCoefficients(z, z0, ri float64) (cd, ce float64) {
	if z0 <= 0 {
		z0 = 1e-4
	}
	if z < 2*z0 {
		z = 2 * z0
	}
	cn := VonKarman / math.Log(z/z0)
	cn *= cn
	var f float64
	switch {
	case ri < 0:
		f = math.Sqrt(1 - 16*math.Max(ri, -10))
	case ri < 0.2:
		d := 1 - 5*ri
		f = d * d
	default:
		f = 1e-3
	}
	cd = cn * f
	ce = cd
	return cd, ce
}

// TestBulkCoefficientsSplit proves the split the coupler makes, the
// neutral coefficient once per atmosphere cell and the stability factor
// per overlap piece: BulkCoefficients and NeutralCoefficient x
// StabilityFactor both equal the one-expression formula bit for bit, over
// every branch (z0 <= 0, z < 2 z0, and the four stability regimes, with
// infinite ri), and OceanRoughness with its hoisted constant and the max
// builtin equals the per-call form with math.Max.
func TestBulkCoefficientsSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var hits [6]int // z0 <= 0, z < 2 z0, ri < -10, -10 <= ri < 0, 0 <= ri < 0.2, ri >= 0.2
	check := func(z, z0, ri float64) {
		wantCd, wantCe := unsplitBulkCoefficients(z, z0, ri)
		cd, ce := BulkCoefficients(z, z0, ri)
		if math.Float64bits(cd) != math.Float64bits(wantCd) || math.Float64bits(ce) != math.Float64bits(wantCe) {
			t.Fatalf("BulkCoefficients(%v, %v, %v) = %v, %v, unsplit %v, %v", z, z0, ri, cd, ce, wantCd, wantCe)
		}
		if got := NeutralCoefficient(z, z0) * StabilityFactor(ri); math.Float64bits(got) != math.Float64bits(wantCd) {
			t.Fatalf("NeutralCoefficient x StabilityFactor (%v, %v, %v) = %v, unsplit %v", z, z0, ri, got, wantCd)
		}
		switch {
		case z0 <= 0:
			hits[0]++
		case z < 2*z0:
			hits[1]++
		}
		switch {
		case ri < -10:
			hits[2]++
		case ri < 0:
			hits[3]++
		case ri < 0.2:
			hits[4]++
		default:
			hits[5]++
		}
	}
	z0s := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return -rng.Float64() // nonpositive roughness
		case 1:
			return 10 + 100*rng.Float64() // rougher than half the height
		default:
			return math.Exp(-12 + 12*rng.Float64()) // 6e-6 .. 1 m
		}
	}
	for i := 0; i < 200000; i++ {
		check(2+200*rng.Float64(), z0s(), -30+31*rng.Float64()) // ri in [-30, 1)
	}
	for _, ri := range []float64{-10, math.Nextafter(-10, 0), 0, math.Copysign(0, -1), 0.2, math.Nextafter(0.2, 0), math.Inf(-1), math.Inf(1)} {
		check(50, 1e-4, ri)
	}
	check(60, 0, 0.1)
	check(60, 30, -1) // z exactly 2 z0
	for k, n := range hits {
		if n == 0 {
			t.Fatalf("branch %d never hit (%v)", k, hits)
		}
	}

	for i := 0; i < 100000; i++ {
		w := 40 * rng.Float64()
		if i < 4 {
			w = []float64{0, math.Copysign(0, -1), 1, math.Inf(1)}[i]
		}
		cn := VonKarman / math.Log(10/1e-4)
		ustar := math.Sqrt(cn*cn) * math.Max(w, 1)
		want := 0.011*ustar*ustar/9.80616 + 1.5e-5
		if got := OceanRoughness(w); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("OceanRoughness(%v) = %v, per-call constant %v", w, got, want)
		}
	}
}
