package ocean

import (
	"math"
	"math/rand"
	"testing"

	"foam/internal/spectral"
)

// testConfig is a small, fast ocean for unit tests.
func testConfig() Config {
	c := DefaultConfig()
	c.NLat, c.NLon, c.NLev = 32, 32, 6
	c.DtTracer = 21600
	c.DtInternal = 2700
	return c
}

// basinKMT returns a rectangular mid-latitude basin bathymetry.
func basinKMT(cfg Config) []int {
	kmt := make([]int, cfg.NLat*cfg.NLon)
	for j := 2; j < cfg.NLat-2; j++ {
		for i := 2; i < cfg.NLon-2; i++ {
			kmt[j*cfg.NLon+i] = cfg.NLev
		}
	}
	return kmt
}

func TestOceanRestStaysAtRest(t *testing.T) {
	cfg := testConfig()
	m, err := New(cfg, basinKMT(cfg))
	if err != nil {
		t.Fatal(err)
	}
	// Uniform T,S so there are no pressure gradients.
	for k := 0; k < cfg.NLev; k++ {
		for c := range m.t[k] {
			if k < m.kmt[c] {
				m.t[k][c] = 10
				m.s[k][c] = 35
			}
		}
	}
	m.BalanceFreeSurface()
	f := NewForcing(cfg.NLat * cfg.NLon)
	for s := 0; s < 10; s++ {
		m.Step(f)
	}
	d := m.Diagnostics()
	if d.MaxSpeed > 1e-10 {
		t.Fatalf("rest state generated currents: %v", d.MaxSpeed)
	}
	if math.Abs(d.MeanEta) > 1e-12 {
		t.Fatalf("rest state generated eta: %v", d.MeanEta)
	}
}

func TestOceanHeatConservationUnforced(t *testing.T) {
	cfg := testConfig()
	m, err := New(cfg, basinKMT(cfg))
	if err != nil {
		t.Fatal(err)
	}
	m.updateDiagnostics()
	h0 := m.Diagnostics().TotalHeat
	s0 := m.Diagnostics().TotalSalt
	f := NewForcing(cfg.NLat * cfg.NLon)
	for s := 0; s < 20; s++ {
		m.Step(f)
	}
	h1 := m.Diagnostics().TotalHeat
	s1 := m.Diagnostics().TotalSalt
	if rel := math.Abs(h1-h0) / math.Abs(h0); rel > 5e-3 {
		t.Fatalf("heat content drifted by %.2e unforced", rel)
	}
	if rel := math.Abs(s1-s0) / math.Abs(s0); rel > 5e-3 {
		t.Fatalf("salt content drifted by %.2e unforced", rel)
	}
}

// Wind-driven spin-up: a zonal wind stress over a basin must create a gyre
// circulation, bounded, with a western intensification signature.
func TestWindDrivenGyre(t *testing.T) {
	if testing.Short() {
		t.Skip("240-day spin-up; skipped in -short")
	}
	cfg := testConfig()
	m, err := New(cfg, basinKMT(cfg))
	if err != nil {
		t.Fatal(err)
	}
	n := cfg.NLat * cfg.NLon
	f := NewForcing(n)
	for j := 0; j < cfg.NLat; j++ {
		lat := m.grid.Lats[j]
		tau := -0.1 * math.Cos(3*lat) // trades/westerlies-like pattern
		for i := 0; i < cfg.NLon; i++ {
			f.TauX[j*cfg.NLon+i] = tau
		}
	}
	days := 240
	steps := days * int(86400/cfg.DtTracer)
	for s := 0; s < steps; s++ {
		m.Step(f)
		d := m.Diagnostics()
		if math.IsNaN(d.MeanSST) || d.MaxSpeed > 10 {
			t.Fatalf("step %d: unstable (speed %v)", s, d.MaxSpeed)
		}
	}
	d := m.Diagnostics()
	if d.MaxSpeed < 0.005 {
		t.Fatalf("no circulation spun up: %v", d.MaxSpeed)
	}
	// Western intensification of the depth-mean (barotropic) circulation:
	// meridional flow in the western quarter should exceed the eastern
	// quarter once the beta-plume has had time to set up.
	var west, east float64
	var nw, ne int
	for j := cfg.NLat / 4; j < 3*cfg.NLat/4; j++ {
		for i := 2; i < cfg.NLon/4; i++ {
			c := j*cfg.NLon + i
			if m.mask[c] > 0 {
				west += math.Abs(m.vbt[c])
				nw++
			}
		}
		for i := 3 * cfg.NLon / 4; i < cfg.NLon-2; i++ {
			c := j*cfg.NLon + i
			if m.mask[c] > 0 {
				east += math.Abs(m.vbt[c])
				ne++
			}
		}
	}
	west /= float64(nw)
	east /= float64(ne)
	if west <= east {
		t.Fatalf("no western intensification: west %v east %v", west, east)
	}
}

func TestSurfaceHeatingWarmsTopLayer(t *testing.T) {
	cfg := testConfig()
	m, err := New(cfg, basinKMT(cfg))
	if err != nil {
		t.Fatal(err)
	}
	n := cfg.NLat * cfg.NLon
	// Uniform state so advection plays no role.
	for k := 0; k < cfg.NLev; k++ {
		for c := 0; c < n; c++ {
			if k < m.kmt[c] {
				m.t[k][c] = 10
				m.s[k][c] = 35
			}
		}
	}
	f := NewForcing(n)
	for c := 0; c < n; c++ {
		f.Heat[c] = 200 // W/m^2
	}
	m.Step(f)
	// Expected top-layer warming before any mixing: Q dt/(rho cp dz).
	want := 200 * cfg.DtTracer / (Rho0 * CpOcean * m.dz[0])
	c := (cfg.NLat/2)*cfg.NLon + cfg.NLon/2
	got := m.t[0][c] - 10
	if math.Abs(got-want)/want > 0.2 {
		t.Fatalf("surface warming %v want ~%v", got, want)
	}
}

func TestFreezeClampAndIceFlux(t *testing.T) {
	cfg := testConfig()
	m, err := New(cfg, basinKMT(cfg))
	if err != nil {
		t.Fatal(err)
	}
	n := cfg.NLat * cfg.NLon
	for k := 0; k < cfg.NLev; k++ {
		for c := 0; c < n; c++ {
			if k < m.kmt[c] {
				m.t[k][c] = TFreeze // already at the clamp
				m.s[k][c] = 34
			}
		}
	}
	f := NewForcing(n)
	for c := 0; c < n; c++ {
		f.Heat[c] = -800 // strong cooling
	}
	m.Step(f)
	c := (cfg.NLat/2)*cfg.NLon + cfg.NLon/2
	if m.t[0][c] < TFreeze-1e-9 {
		t.Fatalf("SST below freezing clamp: %v", m.t[0][c])
	}
	if m.iceFlux[c] <= 0 {
		t.Fatal("expected ice formation flux under strong cooling")
	}
	// Brine rejection should have raised surface salinity.
	if m.s[0][c] <= 34 {
		t.Fatalf("salinity should rise on freezing: %v", m.s[0][c])
	}
}

func TestFreshWaterLowersSalinityRaisesEta(t *testing.T) {
	cfg := testConfig()
	m, err := New(cfg, basinKMT(cfg))
	if err != nil {
		t.Fatal(err)
	}
	n := cfg.NLat * cfg.NLon
	f := NewForcing(n)
	for c := 0; c < n; c++ {
		f.FreshWater[c] = 1e-4 // ~8.6 mm/day
	}
	// Control model without freshwater isolates the (tiny) volume signal
	// from unrelated dynamic adjustments.
	ctl, err := New(cfg, basinKMT(cfg))
	if err != nil {
		t.Fatal(err)
	}
	c := (cfg.NLat/2)*cfg.NLon + cfg.NLon/2
	s0 := m.s[0][c]
	m.Step(f)
	ctl.Step(NewForcing(n))
	if m.s[0][c] >= s0 {
		t.Fatalf("freshwater did not lower salinity: %v -> %v", s0, m.s[0][c])
	}
	dEta := m.Diagnostics().MeanEta - ctl.Diagnostics().MeanEta
	want := 1e-4 / 1000 * cfg.DtTracer // fw volume added in one step, m
	if dEta < 0.5*want {
		t.Fatalf("freshwater eta signal %v, want about %v", dEta, want)
	}
}

func TestConvectiveAdjustmentRemovesInstability(t *testing.T) {
	cfg := testConfig()
	m, err := New(cfg, basinKMT(cfg))
	if err != nil {
		t.Fatal(err)
	}
	c := (cfg.NLat/2)*cfg.NLon + cfg.NLon/2
	// Cold dense water on top of warm light water.
	m.t[0][c] = 2
	m.t[1][c] = 20
	m.convectiveAdjust(1, cfg.NLat-1)
	d0 := densityOf(m.t[0][c], m.s[0][c])
	d1 := densityOf(m.t[1][c], m.s[1][c])
	if d0 > d1+1e-6 {
		t.Fatalf("instability survives adjustment: %v > %v", d0, d1)
	}
}

func TestPP81MixingStrongerAtLowRi(t *testing.T) {
	cfg := testConfig()
	nexp := 3.0
	k0 := cfg.Kappa0
	k := func(ri float64) float64 { return k0/math.Pow(1+5*ri, nexp) + cfg.KappaB }
	if !(k(0) > k(0.5) && k(0.5) > k(5)) {
		t.Fatal("mixing should decrease with Ri")
	}
	// The steeper exponent must reduce mixing at moderate Ri vs n=2.
	k2 := func(ri float64) float64 { return k0/math.Pow(1+5*ri, 2) + cfg.KappaB }
	if !(k(1) < k2(1)) {
		t.Fatal("steep exponent should mix less at Ri=1")
	}
}

func TestBaselineConfigCFL(t *testing.T) {
	b := BaselineConfig()
	if b.Split {
		t.Fatal("baseline must be unsplit")
	}
	if b.Slowdown != 1 {
		t.Fatal("baseline must use physical gravity")
	}
	if b.DtTracer != b.DtInternal {
		t.Fatal("baseline is single-rate")
	}
	// The baseline step must be far smaller than FOAM's tracer step.
	if b.DtTracer > DefaultConfig().DtTracer/20 {
		t.Fatalf("baseline dt %v suspiciously large", b.DtTracer)
	}
}

// The unsplit baseline at its short CFL step must also be stable and
// produce comparable physics over a (short) run.
func TestBaselineUnsplitStable(t *testing.T) {
	cfg := testConfig()
	cfg.Split = false
	cfg.Slowdown = 1
	dx := 6.371e6 * math.Cos(60*math.Pi/180) * 2 * math.Pi / float64(cfg.NLon)
	cext := math.Sqrt(GravOc * cfg.TotalDepth)
	cfg.DtInternal = 0.3 * dx / cext
	cfg.DtBaro = cfg.DtInternal
	cfg.DtTracer = cfg.DtInternal
	m, err := New(cfg, basinKMT(cfg))
	if err != nil {
		t.Fatal(err)
	}
	n := cfg.NLat * cfg.NLon
	f := NewForcing(n)
	for c := 0; c < n; c++ {
		f.TauX[c] = -0.05
	}
	for s := 0; s < 100; s++ {
		m.Step(f)
	}
	d := m.Diagnostics()
	if math.IsNaN(d.MeanSST) || d.MaxSpeed > 10 {
		t.Fatalf("baseline unstable: %+v", d)
	}
}

func TestVerticalGridSumsToDepth(t *testing.T) {
	cfg := DefaultConfig()
	m, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, d := range m.dz {
		sum += d
	}
	if math.Abs(sum-cfg.TotalDepth) > 1e-6 {
		t.Fatalf("dz sums to %v want %v", sum, cfg.TotalDepth)
	}
	for k := 1; k < cfg.NLev; k++ {
		if m.dz[k] <= m.dz[k-1] {
			t.Fatal("layers should thicken downward")
		}
	}
	if m.dz[0] > 60 {
		t.Fatalf("top layer too thick: %v", m.dz[0])
	}
}

func TestRowFilterRemovesHighWavenumbers(t *testing.T) {
	rf := newRowFilter(32)
	row := make([]float64, 32)
	for i := range row {
		row[i] = math.Sin(2 * math.Pi * float64(i) / 32 * 2)   // m=2, keep
		row[i] += math.Sin(2 * math.Pi * float64(i) / 32 * 14) // m=14, remove
	}
	rf.apply(row, 5)
	for i := range row {
		want := math.Sin(2 * math.Pi * float64(i) / 32 * 2)
		if math.Abs(row[i]-want) > 1e-9 {
			t.Fatalf("filter kept high wavenumber at %d: %v vs %v", i, row[i], want)
		}
	}
}

// TestRowFilterMatchesSplitTransform pins rowFilter.apply to the transform
// it wraps: forward split transform of the row over a zero imaginary plane,
// zero the discarded wavenumbers on both planes, inverse, take the real
// plane — bit for bit, on fresh planes. The complex reference the split pair
// itself is pinned to lives in spectral (TestFFTSplitPlanesBitIdentical).
func TestRowFilterMatchesSplitTransform(t *testing.T) {
	for _, n := range []int{24, 128} {
		rf := newRowFilter(n)
		fft := spectral.NewFFT(n)
		scr := fft.NewScratch()
		specRe, specIm := make([]float64, n), make([]float64, n)
		zero, drop := make([]float64, n), make([]float64, n)
		rng := rand.New(rand.NewSource(int64(n)))
		for _, keep := range []int{2, 10, n / 2} {
			row, want := make([]float64, n), make([]float64, n)
			for i := range row {
				row[i] = 20 * rng.NormFloat64()
			}
			copy(want, row)
			if keep < n/2 {
				fft.ForwardSplitInto(specRe, specIm, row, zero, scr)
				for mIdx := keep + 1; mIdx <= n-keep-1; mIdx++ {
					specRe[mIdx], specIm[mIdx] = 0, 0
				}
				fft.InverseSplitInto(want, drop, specRe, specIm, scr)
			}
			rf.apply(row, keep)
			for i := range row {
				if math.Float64bits(row[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d keep=%d i=%d: filter %v != transform %v", n, keep, i, row[i], want[i])
				}
			}
		}
	}
}

func TestSubcyclesCount(t *testing.T) {
	c := DefaultConfig()
	if c.Subcycles() != 4 {
		t.Fatalf("default subcycles %d want 4", c.Subcycles())
	}
	if c.BaroSubcycles() != 2 {
		t.Fatalf("default barotropic subcycles %d want 2", c.BaroSubcycles())
	}
	c.DtInternal = c.DtTracer
	if c.Subcycles() != 1 {
		t.Fatal("equal steps should give one subcycle")
	}
}
