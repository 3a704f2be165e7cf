package ocean

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"

	"foam/internal/data"
	"foam/internal/pool"
	"foam/internal/sphere"
)

// pinnedCase is one row of the trajectory-pinning matrix: a configuration,
// a bathymetry, a step count and the SHA-256 of the end state, recorded on
// the tree before the row-sweep kernel rewrite (commit add2f3f) and
// re-recorded once for the factored FFT butterflies, which the polar filter
// shares: every field then differed from the previous end state by at most
// 6.1e-12 of its largest magnitude (DESIGN.md §21, EXPERIMENTS.md E21).
type pinnedCase struct {
	name  string
	cfg   func() Config
	kmt   func(Config) []int
	steps int
	want  string
}

// boxConfig is the asymmetric 31x24x5 grid of core's asymmetricConfig: odd
// row count, non-square, so worker blocks never divide evenly.
func boxConfig() Config {
	c := DefaultConfig()
	c.NLat, c.NLon, c.NLev = 31, 24, 5
	return c
}

// shelfKMT is a deterministic bathymetry with an island, a ridge and
// stepped shelves, so every masked branch (one-sided gradients, blocked
// faces, columns of one and two levels) is taken on the small grid.
func shelfKMT(cfg Config) []int {
	kmt := make([]int, cfg.NLat*cfg.NLon)
	for j := 0; j < cfg.NLat; j++ {
		for i := 0; i < cfg.NLon; i++ {
			k := cfg.NLev
			switch {
			case i >= 10 && i <= 12 && j >= 12 && j <= 16:
				k = 0 // island
			case i == 18:
				k = 2 + j%3 // meridional ridge
			case j < 4 || j > cfg.NLat-5:
				k = 1 + (i+j)%cfg.NLev // polar shelves
			case i < 2:
				k = 1
			}
			kmt[j*cfg.NLon+i] = min(k, cfg.NLev)
		}
	}
	return kmt
}

var pinnedCases = []pinnedCase{
	{
		name: "paper-earth",
		cfg:  DefaultConfig,
		kmt: func(c Config) []int {
			g := sphere.NewMercatorGrid(c.NLat, c.NLon, c.LatSouth, c.LatNorth)
			return data.Earth().OceanKMT(g, c.NLev)
		},
		steps: 5,
		want:  "59afb464e59bcd1e1226ba8963a9de9cfa6a4a1e414b64e719844570cb8c1924",
	},
	{
		name:  "box-all-ocean",
		cfg:   boxConfig,
		kmt:   func(Config) []int { return nil },
		steps: 10,
		want:  "75ba90897fac0e0f4b3caae8d4fed96628f57c2d1c0a442fbf84381ee854e958",
	},
	{
		name: "box-unsplit",
		cfg: func() Config {
			// BaselineConfig's recipe on the small grid: no split, physical
			// gravity, one short step for everything.
			c := boxConfig()
			c.Split = false
			c.Slowdown = 1
			c.SteepMix = false
			dx := sphere.Radius * math.Cos(72*math.Pi/180) * 2 * math.Pi / float64(c.NLon)
			dt := 0.4 * dx / math.Sqrt(GravOc*c.TotalDepth)
			c.DtTracer, c.DtInternal, c.DtBaro = dt, dt, dt
			return c
		},
		kmt:   shelfKMT,
		steps: 30,
		want:  "390317dac8acd63e1d9ebc4b48059edf2e0f9837496c53439b9785d8495f54c9",
	},
	{
		name: "box-ablation",
		cfg: func() Config {
			c := boxConfig()
			c.NoBiharmonic = true
			c.NoMomentumAdvection = true
			return c
		},
		kmt:   shelfKMT,
		steps: 10,
		want:  "a122996380836960bba87fd70eaaa92b5adfa6fdb6769691b6e352eb96be2a98",
	},
	{
		name:  "box-shelf",
		cfg:   boxConfig,
		kmt:   shelfKMT,
		steps: 10,
		want:  "f97221ca3c8bb1fc353abbeb7ce9f13746dbd41ce2799b1fc11eaa9eace11132",
	},
}

// pinnedStart perturbs the rest state so that the short run visits both
// signs of every upstream branch, the CFL limiters, static instability and
// the freezing clamp: a rest start under smooth forcing would leave most of
// them untouched for the first days.
func pinnedStart(m *Model) *Forcing {
	cfg := m.cfg
	f := pinnedForcing(m)
	for j := 0; j < cfg.NLat; j++ {
		lat := m.grid.Lats[j]
		for i := 0; i < cfg.NLon; i++ {
			c := j*cfg.NLon + i
			lon := 2 * math.Pi * float64(i) / float64(cfg.NLon)
			// Sub-freezing water in the top two layers poleward of 64 deg.
			cold := 5 * math.Max(0, (math.Abs(lat)*180/math.Pi-64)/8)
			for k := 0; k < m.kmt[c]; k++ {
				ph := 0.37*float64(c) + 1.1*float64(k)
				if k < 2 {
					m.t[k][c] -= cold
				}
				m.t[k][c] += 0.8*math.Sin(3*lon+2*lat+float64(k)) + 0.05*math.Sin(ph*7.3)
				m.s[k][c] += 0.15*math.Cos(2*lon-lat) + 0.01*math.Sin(ph*3.1)
				m.u[k][c] = 0.35*math.Sin(2*lon+lat)*math.Exp(-float64(k)/4) + 0.02*math.Sin(ph)
				m.v[k][c] = 0.25*math.Cos(3*lon-2*lat)*math.Exp(-float64(k)/4) + 0.02*math.Cos(ph)
			}
			if m.kmt[c] > 0 {
				m.ubt[c] = 0.05 * math.Sin(lon+2*lat)
				m.vbt[c] = 0.04 * math.Cos(2*lon+lat)
			}
		}
	}
	m.BalanceFreeSurface()
	return f
}

// pinnedForcing is the forcing of the pinned runs: wind stress, a heat
// flux that cools poleward of about 32 deg, and a freshwater flux of both
// signs.
func pinnedForcing(m *Model) *Forcing {
	cfg := m.cfg
	f := NewForcing(cfg.NLat * cfg.NLon)
	for j := 0; j < cfg.NLat; j++ {
		lat := m.grid.Lats[j]
		for i := 0; i < cfg.NLon; i++ {
			c := j*cfg.NLon + i
			lon := 2 * math.Pi * float64(i) / float64(cfg.NLon)
			f.TauX[c] = -0.12 * math.Cos(3*lat+0.3)
			f.TauY[c] = 0.04 * math.Sin(2*lon+lat)
			f.Heat[c] = 180*(math.Cos(2*lat)-0.45) + 40*math.Sin(lon+0.7)
			f.FreshWater[c] = 3e-5 * math.Sin(2*lat+lon)
		}
	}
	return f
}

// pinnedHash is the SHA-256 of the snapshot's prognostic arrays (U, V, T, S
// level by level, then Eta, Ubt, Vbt, IceFlux) followed by the seven
// diagnostics, each value as its little-endian IEEE-754 bits.
func pinnedHash(m *Model) string {
	h := sha256.New()
	var b [8]byte
	put := func(x float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	s := m.Snapshot()
	for _, fld := range [][][]float64{s.U, s.V, s.T, s.S, {s.Eta, s.Ubt, s.Vbt, s.IceFlux}} {
		for _, lev := range fld {
			for _, x := range lev {
				put(x)
			}
		}
	}
	d := m.Diagnostics()
	for _, x := range []float64{d.MeanSST, d.MeanEta, d.MaxSpeed, d.MeanKE, d.IceFlux, d.TotalHeat, d.TotalSalt} {
		put(x)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestOceanTrajectoryPinned pins the ocean's floating-point trajectory: the
// end state of a short forced run must hash to the constant recorded on the
// parent tree, for every configuration in the matrix and for the serial
// driver and a 3-worker pool alike. Any kernel rewrite that reorders a sum,
// turns a division into a multiplication or drops a 0.0+ seed fails here.
// The constants are amd64 results; other architectures may contract a*b+c
// into a fused multiply-add and so are skipped.
func TestOceanTrajectoryPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("trajectory hashes are recorded on amd64 (FMA contraction elsewhere)")
	}
	for _, tc := range pinnedCases {
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				cfg := tc.cfg()
				m, err := New(cfg, tc.kmt(cfg))
				if err != nil {
					t.Fatal(err)
				}
				p := pool.New(workers)
				defer p.Close()
				m.SetPool(p)
				f := pinnedStart(m)
				for s := 0; s < tc.steps; s++ {
					m.Step(f)
				}
				if d := m.Diagnostics(); math.IsNaN(d.MeanSST) || math.IsNaN(d.TotalSalt) || math.IsNaN(d.MaxSpeed) {
					t.Fatalf("run went non-finite: %+v", d)
				}
				if got := pinnedHash(m); got != tc.want {
					t.Errorf("end-state hash %s, want %s", got, tc.want)
				}
			})
		}
	}
}

// surfaceCases pin the two surface-only ocean modes on the shelf box: the
// slab mixed layer, whose freeze clamp fires on the cold polar rows, and
// the prescribed surface of ModeOff, which must not move at all. The start
// cools the surface by 0.5 K per degree poleward of 55 deg, below freezing
// on the box's outermost open rows.
var surfaceCases = []struct {
	name, mode string
	steps      int
	want       string
}{
	{"slab", ModeSlab, 12, "fd9d06ef73ec9679c88b1ae544fd4a9f39163e3a492565aba2d19d42ea3d0f53"},
	{"off", ModeOff, 8, "cc1ef082ed5f6565db7134b0361a2e5da31e80d661a62ae33fe63d4a668a5ff2"},
}

// TestSurfaceOceanPinned pins the trajectories of the slab and off
// oceans: the pinned forcing on a surface cooled towards the poles, and
// the SHA-256 of SST, SSS and IceFormation after the run, each value as
// its little-endian IEEE-754 bits.
func TestSurfaceOceanPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("trajectory hashes are recorded on amd64 (FMA contraction elsewhere)")
	}
	for _, tc := range surfaceCases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := boxConfig()
			cfg.Mode = tc.mode
			m, err := New(cfg, shelfKMT(cfg))
			if err != nil {
				t.Fatal(err)
			}
			f := pinnedForcing(m)
			sst := m.SST()
			for c := range sst {
				if m.kmt[c] > 0 {
					sst[c] -= 0.5 * math.Max(0, math.Abs(m.grid.Lats[c/cfg.NLon])*180/math.Pi-55)
				}
			}
			froze := false
			for s := 0; s < tc.steps; s++ {
				m.Step(f)
				froze = froze || m.Diagnostics().IceFlux > 0
			}
			if froze != (tc.mode == ModeSlab) {
				t.Errorf("freeze clamp fired: %v, want %v", froze, tc.mode == ModeSlab)
			}
			h := sha256.New()
			for _, fld := range [][]float64{m.SST(), m.SSS(), m.IceFormation()} {
				binary.Write(h, binary.LittleEndian, fld)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Errorf("end-state hash %s, want %s", got, tc.want)
			}
		})
	}
}
