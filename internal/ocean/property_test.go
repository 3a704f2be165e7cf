package ocean

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Maximum principle (approximate): unforced transport and mixing must keep
// tracers within their initial range, up to the small overshoot the polar
// Fourier filter can introduce.
func TestTracerMaximumPrinciple(t *testing.T) {
	cfg := testConfig()
	m, err := New(cfg, basinKMT(cfg))
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for k := 0; k < cfg.NLev; k++ {
		for c, v := range m.t[k] {
			if k < m.kmt[c] {
				lo = math.Min(lo, v)
				hi = math.Max(hi, v)
			}
		}
	}
	f := NewForcing(cfg.NLat * cfg.NLon)
	// Give it something to advect with.
	for j := 0; j < cfg.NLat; j++ {
		tau := -0.1 * math.Cos(3*m.grid.Lats[j])
		for i := 0; i < cfg.NLon; i++ {
			f.TauX[j*cfg.NLon+i] = tau
		}
	}
	for s := 0; s < 60; s++ {
		m.Step(f)
	}
	tol := 0.02 * (hi - lo)
	for k := 0; k < cfg.NLev; k++ {
		for c, v := range m.t[k] {
			if k >= m.kmt[c] {
				continue
			}
			if v < lo-tol || v > hi+tol {
				t.Fatalf("temperature %v outside initial range [%v, %v] at k=%d c=%d",
					v, lo, hi, k, c)
			}
		}
	}
}

// Robustness: random (bounded) forcing fields must never produce NaN or
// runaway state — the coupled model can hand the ocean anything within
// physical limits.
func TestOceanRobustToRandomForcing(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := testConfig()
		cfg.NLat, cfg.NLon, cfg.NLev = 24, 24, 4
		m, err := New(cfg, nil)
		if err != nil {
			return false
		}
		n := cfg.NLat * cfg.NLon
		f := NewForcing(n)
		for c := 0; c < n; c++ {
			f.TauX[c] = 1.5 * (2*rng.Float64() - 1)
			f.TauY[c] = 1.5 * (2*rng.Float64() - 1)
			f.Heat[c] = 1000 * (2*rng.Float64() - 1)
			f.FreshWater[c] = 3e-4 * (2*rng.Float64() - 1)
		}
		for s := 0; s < 40; s++ {
			m.Step(f)
		}
		d := m.Diagnostics()
		if math.IsNaN(d.MeanSST) || math.IsNaN(d.MeanEta) {
			return false
		}
		if d.MaxSpeed > 3.01 {
			return false
		}
		// Salinity must stay physical.
		for c := 0; c < n; c++ {
			if m.kmt[c] > 0 && (m.s[0][c] < 0 || m.s[0][c] > 60) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 5}); err != nil {
		t.Fatal(err)
	}
}

// Slowdown invariance: the steady wind-driven circulation should be nearly
// independent of the slowdown factor (the paper's claim that slowed
// barotropic dynamics "make little difference to the internal motions").
func TestSlowdownInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("two 60-day spin-ups; skipped in -short")
	}
	run := func(slow float64, dtb float64) []float64 {
		cfg := testConfig()
		cfg.Slowdown = slow
		cfg.DtBaro = dtb
		m, _ := New(cfg, basinKMT(cfg))
		n := cfg.NLat * cfg.NLon
		f := NewForcing(n)
		for j := 0; j < cfg.NLat; j++ {
			tau := -0.1 * math.Cos(3*m.grid.Lats[j])
			for i := 0; i < cfg.NLon; i++ {
				f.TauX[j*cfg.NLon+i] = tau
			}
		}
		for s := 0; s < 240; s++ { // 60 days
			m.Step(f)
		}
		return append([]float64(nil), m.ubt...)
	}
	a := run(16, 2700)
	b := run(8, 1350)
	// Compare the barotropic circulation patterns.
	var num, da, db float64
	for c := range a {
		num += a[c] * b[c]
		da += a[c] * a[c]
		db += b[c] * b[c]
	}
	corr := num / math.Sqrt(da*db+1e-30)
	// At day 60 the gyre is still spinning up, and spin-up transients do
	// depend on the wave speed; the patterns must nonetheless agree closely
	// (they converge further as the steady state is approached).
	if corr < 0.85 {
		t.Fatalf("slowdown changed the circulation: pattern correlation %v", corr)
	}
}

// TestPowByMultiplication: verticalMixing raises 1+5Ri to the second or
// third power by multiplication. That is only admissible because it is
// bit-equal to the math.Pow it replaced, over the whole range the
// Richardson number can produce (Ri >= 0, up to N^2/1e-10 in a sheared
// column at rest) — checked here on a dense logarithmic sweep, on random
// draws and on the endpoints.
func TestPowByMultiplication(t *testing.T) {
	check := func(ri float64) {
		t.Helper()
		x := 1 + 5*ri
		if got, want := x*x, math.Pow(x, 2); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Ri=%v: x*x = %v, math.Pow(x, 2) = %v", ri, got, want)
		}
		if got, want := x*(x*x), math.Pow(x, 3); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Ri=%v: x*(x*x) = %v, math.Pow(x, 3) = %v", ri, got, want)
		}
	}
	for _, ri := range []float64{0, math.SmallestNonzeroFloat64, 1e-300, 0.25, 1, 1e12, 1e60, math.Inf(1)} {
		check(ri)
	}
	for e := -30.0; e <= 30; e += 1.0 / 64 {
		check(math.Pow(10, e))
	}
	rng := rand.New(rand.NewSource(7))
	for n := 0; n < 200000; n++ {
		check(math.Exp(rng.Float64()*60 - 30))
	}
}
