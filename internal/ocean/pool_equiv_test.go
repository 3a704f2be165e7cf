package ocean

import (
	"fmt"
	"math"
	"testing"

	"foam/internal/pool"
)

// TestSharedPoolMatchesSerial: stepping on a worker pool must be
// bit-identical (==, not approximately) to the serial path for any worker
// count, on every prognostic field. Worker counts 2, 3 and 7 cut the
// interior rows into uneven sub-ranges (7 workers over the 29 interior rows
// of the asymmetric grid leaves blocks of 4 and 5 rows), so every rolling
// row window — face velocities, tracer fluxes, the biharmonic's Laplacian
// rows — is re-primed at seams that fall at different rows each time. The
// configuration variants switch each phase group on and off: split and
// unsplit free surface, one subcycle, no polar filter, no momentum
// advection or biharmonic friction.
func TestSharedPoolMatchesSerial(t *testing.T) {
	oneSubcycle := func(c *Config) { c.DtInternal, c.DtBaro = c.DtTracer, c.DtTracer }
	cases := []struct {
		name string
		cfg  Config
		kmt  func(Config) []int
		mod  func(*Config)
	}{
		{"basin/split", testConfig(), basinKMT, func(*Config) {}},
		{"basin/unsplit", testConfig(), basinKMT, func(c *Config) { c.Split = false }},
		{"asymmetric/split", boxConfig(), shelfKMT, func(*Config) {}},
		{"asymmetric/unsplit", boxConfig(), shelfKMT, func(c *Config) { c.Split = false }},
		{"asymmetric/nofilter+1subcycle", boxConfig(), shelfKMT, func(c *Config) {
			c.PolarFilterLat = 89
			oneSubcycle(c)
		}},
		{"asymmetric/ablated", boxConfig(), shelfKMT, func(c *Config) {
			c.PolarFilterLat = 89
			oneSubcycle(c)
			c.NoMomentumAdvection = true
			c.NoBiharmonic = true
		}},
	}
	const steps = 5
	for _, tc := range cases {
		cfg := tc.cfg
		tc.mod(&cfg)
		kmt := tc.kmt(cfg)
		run := func(workers int) *Model {
			m, err := New(cfg, kmt)
			if err != nil {
				t.Fatal(err)
			}
			p := pool.New(workers)
			defer p.Close()
			m.SetPool(p)
			f := NewForcing(cfg.NLat * cfg.NLon)
			for j := 0; j < cfg.NLat; j++ {
				lat := m.grid.Lats[j]
				for i := 0; i < cfg.NLon; i++ {
					c := j*cfg.NLon + i
					f.TauX[c] = -0.08 * math.Cos(3*lat)
					f.Heat[c] = 100 * math.Cos(lat)
					f.FreshWater[c] = 2e-5 * math.Sin(lat)
				}
			}
			for s := 0; s < steps; s++ {
				m.Step(f)
			}
			return m
		}
		serial := run(1)
		want := serial.Snapshot()
		for _, workers := range []int{2, 3, 7} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				got := run(workers)
				snap := got.Snapshot()
				for _, fld := range []struct {
					name string
					a, b [][]float64
				}{
					{"u", want.U, snap.U}, {"v", want.V, snap.V}, {"t", want.T, snap.T}, {"s", want.S, snap.S},
					{"surface", [][]float64{want.Eta, want.Ubt, want.Vbt, want.IceFlux},
						[][]float64{snap.Eta, snap.Ubt, snap.Vbt, snap.IceFlux}},
				} {
					for k := range fld.a {
						for c := range fld.a[k] {
							if fld.a[k][c] != fld.b[k][c] {
								t.Fatalf("field %s level %d cell %d: serial %v pool %v",
									fld.name, k, c, fld.a[k][c], fld.b[k][c])
							}
						}
					}
				}
				if serial.diag != got.diag {
					t.Fatalf("diagnostics differ: %+v vs %+v", serial.diag, got.diag)
				}
			})
		}
	}
}
