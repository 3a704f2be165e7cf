package atmos

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"

	"foam/internal/pool"
	"foam/internal/spectral"
	"foam/internal/sphere"
)

// atmosPinnedCase is one row of the atmosphere trajectory-pinning matrix:
// a truncation rung, a physics package, a step count and the SHA-256 of the
// end state. The hashes were first recorded before the atmosphere kernel
// pass (commit 4fc9363) and re-recorded once for the hemispheric-pair
// transform and the factored Exner tables, the first change meant to move
// bits: every Snapshot field of every case then differed from the previous
// end state by at most 7.4e-13 of its largest magnitude (DESIGN.md §21,
// EXPERIMENTS.md E20).
type atmosPinnedCase struct {
	name      string
	m, nlev   int
	physics   PhysicsVersion
	adiabatic bool
	orography bool
	steps     int
	want      string
}

var atmosPinnedCases = []atmosPinnedCase{
	{name: "r5-ccm3", m: 5, nlev: 8, physics: PhysicsCCM3, steps: 12, want: "285eea6e8ccfe66879ac6e01c80719aa802f813aef4714d2af7761a0f93925e9"},
	{name: "r5-ccm2", m: 5, nlev: 8, physics: PhysicsCCM2, steps: 12, want: "48c52987dd87c98fa676f51dd000c12adaddab8db4864f62925b61d03525b2cc"},
	{name: "r5-adiabatic", m: 5, nlev: 8, adiabatic: true, steps: 12, want: "9ae6569d85fa8624a9199e02732fc267c1925e628667852ba69ad41a08fbbddd"},
	{name: "r15-ccm3", m: 15, nlev: 18, physics: PhysicsCCM3, steps: 6, want: "21a6fe91133b979fcc9d564d219012715dcf058c0b4e6aa54d8c0fb3123f43bd"},
	{name: "r15-ccm2", m: 15, nlev: 18, physics: PhysicsCCM2, steps: 6, want: "5b866511ac24fe90698a3a1c07d83ec4dd268e2ccbd9981568f8cf1bfc4c7da2"},
	{name: "r15-adiabatic", m: 15, nlev: 18, adiabatic: true, steps: 6, want: "eefbb537a41fd4ed260667319c8124439ce68cc44e80c48c21a1447c53b12ade"},
	{name: "r15-ccm3-orography", m: 15, nlev: 18, physics: PhysicsCCM3, orography: true, steps: 6, want: "f7d8781afd3b548615fe6dcf38abd8bc962a389bb44ba8c521769e0b7ea4ae92"},
	{name: "r21-ccm3", m: 21, nlev: 18, physics: PhysicsCCM3, steps: 4, want: "257945ba507fa425e38f9abc41affae02d298df2b211fbe39109ae68d1ccfbd3"},
	{name: "r21-ccm2", m: 21, nlev: 18, physics: PhysicsCCM2, steps: 4, want: "14abbc274d27e4272927f4674e10e2c9bd08cbe6fdee29dffa158f7f338efa62"},
	{name: "r21-adiabatic", m: 21, nlev: 18, adiabatic: true, steps: 4, want: "9b435caebecd33eaf31f705c6f34b0e45340dee757f4fff60174e5942171473a"},
}

// atmosPinnedStart builds the case's model and perturbs the default start
// so the short run takes the branches a smooth start leaves alone for days:
// supersaturated and dry columns (condensation, re-evaporation, shallow and
// deep convection), sub-freezing low levels (snow), superadiabatic pairs
// (dry adjustment) and a wave field on every level of both time levels.
func atmosPinnedStart(t testing.TB, tc atmosPinnedCase) *Model {
	cfg := ConfigForTruncation(spectral.Rhomboidal(tc.m), tc.nlev)
	cfg.Physics = tc.physics
	cfg.Adiabatic = tc.adiabatic
	cfg.RadiationEvery = 3 // two radiation steps inside every run
	m, err := New(cfg, NewUniformOcean(291))
	if err != nil {
		t.Fatal(err)
	}
	nlat, nlon := cfg.NLat, cfg.NLon
	if tc.orography {
		phiS := make([]float64, nlat*nlon)
		for j := 0; j < nlat; j++ {
			lat := math.Asin(m.geom.mu[j])
			for i := 0; i < nlon; i++ {
				lon := 2 * math.Pi * float64(i) / float64(nlon)
				d2 := (lat-0.6)*(lat-0.6) + (lon-1.7)*(lon-1.7)
				phiS[j*nlon+i] = sphere.Gravity * 2500 * math.Exp(-d2/0.15)
			}
		}
		m.SetOrography(phiS)
	}
	g := make([]float64, nlat*nlon)
	for k := 0; k < cfg.NLev; k++ {
		base := m.tr.Synthesize(m.cur.temp[k])
		for j := 0; j < nlat; j++ {
			lat := math.Asin(m.geom.mu[j])
			for i := 0; i < nlon; i++ {
				c := j*nlon + i
				lon := 2 * math.Pi * float64(i) / float64(nlon)
				ph := 0.37*float64(c) + 1.1*float64(k)
				g[c] = base[c] + 2.5*math.Sin(3*lon+2*lat+float64(k)) + 0.3*math.Sin(ph*7.3)
				if k >= cfg.NLev-2 {
					g[c] += 4 * math.Cos(2*lon-lat) // superadiabatic pairs near the surface
				}
				m.q[k][c] *= 1 + 0.6*math.Sin(2*lon+3*lat+0.5*float64(k)) + 0.05*math.Sin(ph*3.1)
			}
		}
		m.cur.temp[k] = m.tr.Analyze(g)
		for j := 0; j < nlat; j++ {
			lat := math.Asin(m.geom.mu[j])
			for i := 0; i < nlon; i++ {
				lon := 2 * math.Pi * float64(i) / float64(nlon)
				g[j*nlon+i] = 2e-5 * math.Sin(2*lon+lat) * math.Cos(lat) * math.Exp(-float64(cfg.NLev-1-k)/6)
			}
		}
		m.cur.vort[k] = m.tr.Analyze(g)
	}
	m.old.copyFrom(m.cur)
	return m
}

// atmosPinnedHash is the SHA-256 of every Snapshot field (both spectral time
// levels, Q, QR, the surface radiation and precipitation fields, the last
// exchange, the two means) followed by the step diagnostics, each value as
// its little-endian IEEE-754 bits.
func atmosPinnedHash(m *Model) string {
	h := sha256.New()
	var b [8]byte
	put := func(x float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	s := m.Snapshot()
	put(float64(s.Step))
	for _, fld := range [][][]complex128{s.VortC, s.DivC, s.TempC, s.VortO, s.DivO, s.TempO, {s.LnpsC, s.LnpsO}} {
		for _, lev := range fld {
			for _, x := range lev {
				put(real(x))
				put(imag(x))
			}
		}
	}
	for _, fld := range [][][]float64{s.Q, s.QR, {s.SWDn, s.LWDn, s.Rain, s.Snow, s.ExTSurf, s.ExAlbedo}} {
		for _, lev := range fld {
			for _, x := range lev {
				put(x)
			}
		}
	}
	d := m.Diagnostics()
	for _, x := range []float64{s.MeanPrecip, s.MeanEvap, d.MeanPs, d.MeanT, d.MaxWind, d.PrecipMean, d.EvapMean, d.KineticMean} {
		put(x)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestAtmosTrajectoryPinned pins the atmosphere's floating-point trajectory:
// the end state of a short run must hash to the recorded constant, for
// every rung and physics package in the matrix and for the serial driver
// and a 3-worker pool alike. Any kernel rewrite that reorders a sum,
// replaces a math.Pow by a reciprocal or lets a -0 through fails here; one
// that does so on purpose re-records the constants in one commit with the
// per-field old-vs-new distance beside them (DESIGN.md §21). The constants are amd64 results; other architectures may contract
// a*b+c into a fused multiply-add and so are skipped.
func TestAtmosTrajectoryPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("trajectory hashes are recorded on amd64 (FMA contraction elsewhere)")
	}
	for _, tc := range atmosPinnedCases {
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				m := atmosPinnedStart(t, tc)
				p := pool.New(workers)
				defer p.Close()
				m.SetPool(p)
				snow, deep := 0, 0
				for s := 0; s < tc.steps; s++ {
					m.Step()
					deep += m.phy.convActive
					for _, x := range m.phy.snow {
						if x > 0 {
							snow++
						}
					}
				}
				d := m.Diagnostics()
				if math.IsNaN(d.MeanT) || math.IsNaN(d.MeanPs) || math.IsNaN(d.MaxWind) {
					t.Fatalf("run went non-finite: %+v", d)
				}
				// The pin is only as strong as the branches the run takes.
				if !tc.adiabatic && (snow == 0 || d.PrecipMean <= 0 || (tc.physics == PhysicsCCM3) != (deep > 0)) {
					t.Fatalf("run skipped a physics branch: %d snow cells, %d deep-convection columns, %+v", snow, deep, d)
				}
				if got := atmosPinnedHash(m); got != tc.want {
					t.Errorf("end-state hash %s, want %s", got, tc.want)
				}
			})
		}
	}
}
