package ocean

import (
	"fmt"
	"math"
	"time"

	"foam/internal/pool"
	"foam/internal/sphere"
)

// Forcing is the surface forcing the coupler supplies each tracer step.
type Forcing struct {
	TauX, TauY []float64 // surface wind stress on the ocean, N/m^2
	Heat       []float64 // net heat flux into the ocean, W/m^2
	FreshWater []float64 // net freshwater flux into the ocean, kg/m^2/s (P-E+runoff-ice)
}

// NewForcing allocates zero forcing for n cells.
func NewForcing(n int) *Forcing {
	return &Forcing{
		TauX: make([]float64, n), TauY: make([]float64, n),
		Heat: make([]float64, n), FreshWater: make([]float64, n),
	}
}

// Diagnostics are per-step global numbers. diag.Units holds the unit of
// every field for the printed column headers
// (TestDiagUnitsMatchAnnotations in internal/diag checks that it covers
// each field).
type Diagnostics struct {
	MeanSST   float64 // deg C over ocean
	MeanEta   float64 // m
	MaxSpeed  float64 // m/s (surface)
	MeanKE    float64 // surface kinetic energy per unit mass, m^2/s^2
	IceFlux   float64 // area-mean freezing water-equivalent flux, kg/m^2/s
	TotalHeat float64 // volume integral of temperature (conservation checks), degC m^3
	TotalSalt float64 // volume integral of salinity, psu m^3
}

// Model is the FOAM ocean. All fields are full-domain, row-major
// [k*ncell + j*nlon + i] flattened per level as [][]float64 for clarity.
type Model struct {
	// cfg is fixed after construction; Restore requires a model of
	// identical configuration.
	cfg  Config
	grid *sphere.Grid

	// Metrics per row.
	dx, dy []float64 // cell spacing, m
	cosLat []float64
	fcor   []float64 // Coriolis per row, 1/s

	// Vertical grid.
	zh, zf, dz []float64 // half depths (nlev+1), full depths, thickness, m

	// Bathymetry: number of active levels per cell (0 = land).
	kmt  []int
	mask []float64 // 1 over ocean, 0 over land (surface)

	// Prognostic state.
	u, v     [][]float64 // full 3-D velocity, m/s
	t, s     [][]float64 // potential temperature (deg C), salinity (psu)
	eta      []float64   // free surface, m
	ubt, vbt []float64   // barotropic (depth-mean) velocity, m/s

	// Work arrays.
	rho [][]float64 // density anomaly
	pbc [][]float64 // baroclinic pressure / rho0
	// slowU and slowV are recomputed from the prognostic state at the top
	// of every tracer step, before the subcycles read them.
	slowU, slowV [][]float64 // slow momentum tendencies carried through subcycles, m/s^2
	// wVel is diagnosed from continuity each step before any read.
	wVel [][]float64 // vertical velocity at half levels (nlev+1)
	// scr and scr2 are per-phase scratch, rows written by their owning
	// worker before every read: scr the tracer tendency, smoothing
	// increment and unsplit divergence sum, scr2 the salinity tendency,
	// barotropic divergence and v smoothing increment.
	scr  []float64
	scr2 []float64
	// btFx and btFy are the depth-mean forcing of the barotropic system,
	// rewritten by internalStep in every internal step before the
	// barotropic substeps read them.
	btFx, btFy []float64 // m/s^2
	// layerWgt[kb*NLev+k] = dz[k]/zh[kb]: layer k's share of a kb-level column.
	layerWgt []float64

	iceFlux []float64 // freezing flux diagnosed this step, kg/m^2/s

	step int
	diag Diagnostics
	// lastStepSeconds is a wall-clock diagnostic for the load-balance
	// harness, never simulation state.
	lastStepSeconds float64

	// Execution: every Step runs the phase driver of shared.go on this
	// pool (nil runs each phase inline), attached by SetPool: how a step
	// runs, never simulation state.
	pool *pool.Pool
	// ws holds per-worker row buffers, fully rewritten inside each kernel
	// call.
	ws []*workScratch
	// ph holds the pre-bound phase closures and their per-step staging,
	// bound once at construction.
	ph *phases
}

// New builds an ocean model with the given bathymetry (kmt: active levels
// per cell, 0 = land). Pass nil for an all-ocean full-depth domain.
func New(cfg Config, kmt []int) (*Model, error) {
	return NewOnGrid(cfg, kmt, nil)
}

// NewOnGrid builds an ocean model on a prebuilt Mercator grid, so many
// models of the same configuration can share one immutable grid (the model
// only reads it). A nil grid builds a fresh one; a non-nil grid must match
// the configured dimensions.
func NewOnGrid(cfg Config, kmt []int, grid *sphere.Grid) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Model{cfg: cfg}
	if grid == nil {
		grid = sphere.NewMercatorGrid(cfg.NLat, cfg.NLon, cfg.LatSouth, cfg.LatNorth)
	} else if grid.NLat() != cfg.NLat || grid.NLon() != cfg.NLon {
		return nil, fmt.Errorf("ocean: shared grid is %dx%d, config wants %dx%d",
			grid.NLat(), grid.NLon(), cfg.NLat, cfg.NLon)
	}
	m.grid = grid
	n := cfg.NLat * cfg.NLon
	m.dx = make([]float64, cfg.NLat)
	m.dy = make([]float64, cfg.NLat)
	m.cosLat = make([]float64, cfg.NLat)
	m.fcor = make([]float64, cfg.NLat)
	dlon := 2 * math.Pi / float64(cfg.NLon)
	for j := 0; j < cfg.NLat; j++ {
		lat := m.grid.Lats[j]
		m.cosLat[j] = math.Cos(lat)
		m.dx[j] = sphere.Radius * m.cosLat[j] * dlon
		m.fcor[j] = sphere.Coriolis(lat) * cfg.rotation()
	}
	for j := 0; j < cfg.NLat; j++ {
		switch {
		case j == 0:
			m.dy[j] = sphere.Radius * (m.grid.Lats[1] - m.grid.Lats[0])
		case j == cfg.NLat-1:
			m.dy[j] = sphere.Radius * (m.grid.Lats[j] - m.grid.Lats[j-1])
		default:
			m.dy[j] = sphere.Radius * 0.5 * (m.grid.Lats[j+1] - m.grid.Lats[j-1])
		}
	}
	m.buildVertical()
	if kmt == nil {
		kmt = make([]int, n)
		for c := range kmt {
			kmt[c] = cfg.NLev
		}
	}
	if len(kmt) != n {
		panic("ocean: kmt size mismatch")
	}
	m.kmt = append([]int(nil), kmt...)
	// Close the domain's north and south boundary rows.
	for i := 0; i < cfg.NLon; i++ {
		m.kmt[i] = 0
		m.kmt[(cfg.NLat-1)*cfg.NLon+i] = 0
	}
	m.mask = make([]float64, n)
	for c := range m.mask {
		if m.kmt[c] > 0 {
			m.mask[c] = 1
		}
	}
	alloc := func() [][]float64 {
		a := make([][]float64, cfg.NLev)
		for k := range a {
			a[k] = make([]float64, n)
		}
		return a
	}
	m.u, m.v = alloc(), alloc()
	m.t, m.s = alloc(), alloc()
	m.rho, m.pbc = alloc(), alloc()
	m.slowU, m.slowV = alloc(), alloc()
	m.wVel = make([][]float64, cfg.NLev+1)
	for k := range m.wVel {
		m.wVel[k] = make([]float64, n)
	}
	m.eta = make([]float64, n)
	m.ubt = make([]float64, n)
	m.vbt = make([]float64, n)
	m.scr = make([]float64, n)
	m.scr2 = make([]float64, n)
	m.btFx = make([]float64, n)
	m.btFy = make([]float64, n)
	m.iceFlux = make([]float64, n)
	m.ph = m.bindPhases()
	m.SetPool(nil)
	m.initState()
	return m, nil
}

// buildVertical creates the stretched z grid: a 25 m surface layer
// thickening geometrically to the bottom (the stretch ratio is solved so
// the column sums to TotalDepth).
func (m *Model) buildVertical() {
	nl := m.cfg.NLev
	m.dz = make([]float64, nl)
	dz0 := math.Min(25, m.cfg.TotalDepth/float64(nl))
	// Solve dz0*(r^nl - 1)/(r - 1) = depth for r by bisection.
	target := m.cfg.TotalDepth / dz0
	lo, hi := 1.0000001, 10.0
	for it := 0; it < 200; it++ {
		r := 0.5 * (lo + hi)
		s := (math.Pow(r, float64(nl)) - 1) / (r - 1)
		if s > target {
			hi = r
		} else {
			lo = r
		}
	}
	r := 0.5 * (lo + hi)
	for k := 0; k < nl; k++ {
		m.dz[k] = dz0 * math.Pow(r, float64(k))
	}
	// Normalize the rounding residue into the bottom layer.
	sum := 0.0
	for _, d := range m.dz {
		sum += d
	}
	m.dz[nl-1] += m.cfg.TotalDepth - sum
	m.zh = make([]float64, nl+1)
	m.zf = make([]float64, nl)
	for k := 0; k < nl; k++ {
		m.zh[k+1] = m.zh[k] + m.dz[k]
		m.zf[k] = m.zh[k] + 0.5*m.dz[k]
	}
	m.layerWgt = make([]float64, (nl+1)*nl)
	for kb := 1; kb <= nl; kb++ {
		for k := 0; k < kb; k++ {
			m.layerWgt[kb*nl+k] = m.dz[k] / m.zh[kb]
		}
	}
}

// initState sets an Earth-like rest state: warm tropical surface waters,
// cold deep ocean, uniform salinity with a slight subtropical maximum.
func (m *Model) initState() {
	nlat, nlon := m.cfg.NLat, m.cfg.NLon
	for k := 0; k < m.cfg.NLev; k++ {
		z := m.zf[k]
		for j := 0; j < nlat; j++ {
			lat := m.grid.Lats[j]
			surf := 27*math.Exp(-math.Pow(lat/(40*sphere.Deg2Rad), 2)) + 1
			tv := 2 + (surf-2)*math.Exp(-z/800)
			sv := 34.7 + 0.6*math.Exp(-z/500)*math.Exp(-math.Pow(math.Abs(lat)/(25*sphere.Deg2Rad)-1, 2))
			for i := 0; i < nlon; i++ {
				c := j*nlon + i
				if k < m.kmt[c] {
					m.t[k][c] = tv
					m.s[k][c] = sv
				}
			}
		}
	}
	m.BalanceFreeSurface()
}

// BalanceFreeSurface sets the free surface to steric balance with the
// current density field (g*eta cancels the depth-mean baroclinic pressure
// gradient), so a rest start does not launch a violent barotropic
// adjustment. Call after directly editing T or S.
func (m *Model) BalanceFreeSurface() {
	nlat, nlon := m.cfg.NLat, m.cfg.NLon
	m.density(1, nlat-1)
	m.baroclinicPressure(m.ws[0], 1, nlat-1)
	for j := 0; j < nlat; j++ {
		for i := 0; i < nlon; i++ {
			c := j*nlon + i
			kb := m.kmt[c]
			if kb == 0 {
				m.eta[c] = 0
				continue
			}
			h := m.zh[kb]
			mean := 0.0
			for k := 0; k < kb; k++ {
				mean += m.pbc[k][c] * m.dz[k]
			}
			// eta carries the s^2-amplified scaling of the slowed
			// barotropic formulation (g_eff * eta is physical pressure).
			m.eta[c] = -mean / h / GravOc * m.cfg.Slowdown * m.cfg.Slowdown
		}
	}
}

// Grid returns the ocean grid.
func (m *Model) Grid() *sphere.Grid { return m.grid }

// Config returns the configuration.
func (m *Model) Config() Config { return m.cfg }

// Mask returns 1 over ocean and 0 over land, per surface cell.
func (m *Model) Mask() []float64 { return m.mask }

// KMT returns active level counts (live slice; do not modify).
func (m *Model) KMT() []int { return m.kmt }

// SST returns the surface temperature field in deg C (live slice).
func (m *Model) SST() []float64 { return m.t[0] }

// SSS returns surface salinity (live slice).
func (m *Model) SSS() []float64 { return m.s[0] }

// Eta returns the free surface (live slice).
func (m *Model) Eta() []float64 { return m.eta }

// SurfaceCurrents returns the top-level velocities (live slices).
func (m *Model) SurfaceCurrents() (u, v []float64) { return m.u[0], m.v[0] }

// IceFormation returns the freezing water-equivalent flux diagnosed last
// step (kg/m^2/s per cell), the paper's 2 m water-out-of-ocean treatment.
func (m *Model) IceFormation() []float64 { return m.iceFlux }

// Diagnostics returns globals from the latest step.
func (m *Model) Diagnostics() Diagnostics { return m.diag }

// StepCount returns completed tracer steps.
func (m *Model) StepCount() int { return m.step }

// SetPool attaches the pool the phase driver executes on and keeps one
// set of row buffers per worker. The integration is bit-identical for
// any worker count (see shared.go). Pass nil for serial execution.
func (m *Model) SetPool(p *pool.Pool) {
	m.pool = p
	if len(m.ws) == p.Workers() {
		return
	}
	m.ws = make([]*workScratch, p.Workers())
	for w := range m.ws {
		m.ws[w] = newWorkScratch(m.cfg)
	}
}

// Step advances one tracer interval (DtTracer) under the given forcing.
func (m *Model) Step(f *Forcing) {
	t0 := time.Now()
	switch m.cfg.Mode {
	case ModeSlab:
		m.stepSlab(f)
	case ModeOff:
		// Prescribed surface: the initial state is the forever state.
	default:
		m.stepPhases(f)
	}
	m.lastStepSeconds = time.Since(t0).Seconds()
	m.step++
	m.updateDiagnostics()
}

// LastStepSeconds returns the wall time of the most recent Step, used by
// the trace-driven parallel harness.
func (m *Model) LastStepSeconds() float64 { return m.lastStepSeconds }

// updateDiagnostics recomputes the global numbers in one row-wise pass; each
// sum runs over the ocean cells in index order (and top-down within a
// column), which fixes its rounding.
func (m *Model) updateDiagnostics() {
	var sumT, areaT, maxSp, ke, ice, meanEta, th, sa float64
	t0, u0, v0 := m.t[0], m.u[0], m.v[0]
	for j := 1; j < m.cfg.NLat-1; j++ {
		w := m.dx[j] * m.dy[j]
		c := j * m.cfg.NLon
		for _, kb := range m.kmtRow(j) {
			if kb > 0 {
				sumT += t0[c] * w
				areaT += w
				sp := math.Hypot(u0[c], v0[c])
				if sp > maxSp {
					maxSp = sp
				}
				ke += 0.5 * sp * sp * w
				ice += m.iceFlux[c] * w
				meanEta += m.eta[c] * w
				for k := 0; k < kb; k++ {
					th += m.t[k][c] * w * m.dz[k]
					sa += m.s[k][c] * w * m.dz[k]
				}
			}
			c++
		}
	}
	area := math.Max(areaT, 1)
	m.diag.MeanSST = sumT / area
	m.diag.MaxSpeed = maxSp
	m.diag.MeanKE = ke / area
	m.diag.IceFlux = ice / area
	// Report the physically scaled surface height.
	m.diag.MeanEta = meanEta / area / (m.cfg.Slowdown * m.cfg.Slowdown)
	m.diag.TotalHeat = th
	m.diag.TotalSalt = sa
}

// TField and SField expose the full tracer arrays for tests and tools.
func (m *Model) TField() [][]float64 { return m.t }
func (m *Model) SField() [][]float64 { return m.s }

// UbtField exposes the barotropic zonal velocity (tests/tools).
func (m *Model) UbtField() []float64 { return m.ubt }

// Snapshot captures the ocean's prognostic state for checkpointing.
type Snapshot struct {
	Step          int
	U, V, T, S    [][]float64
	Eta, Ubt, Vbt []float64
	IceFlux       []float64 // freezing diagnostic consumed by the coupler
}

func copy2(a [][]float64) [][]float64 {
	out := make([][]float64, len(a))
	for i := range a {
		out[i] = append([]float64(nil), a[i]...)
	}
	return out
}

// Snapshot returns a checkpoint of the ocean state.
func (m *Model) Snapshot() *Snapshot {
	return &Snapshot{
		Step: m.step,
		U:    copy2(m.u), V: copy2(m.v), T: copy2(m.t), S: copy2(m.s),
		Eta:     append([]float64(nil), m.eta...),
		Ubt:     append([]float64(nil), m.ubt...),
		Vbt:     append([]float64(nil), m.vbt...),
		IceFlux: append([]float64(nil), m.iceFlux...),
	}
}

// sameLen and sameShape report a snapshot field whose length, or whose
// first differing level's length, is not the model's.
func sameLen(name string, got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("ocean: snapshot field %s has length %d, the model has %d", name, len(got), len(want))
	}
	return nil
}

func sameShape(name string, got, want [][]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("ocean: snapshot field %s has %d levels, the model has %d", name, len(got), len(want))
	}
	for k := range want {
		if len(got[k]) != len(want[k]) {
			return fmt.Errorf("ocean: snapshot field %s level %d has length %d, the model has %d", name, k, len(got[k]), len(want[k]))
		}
	}
	return nil
}

// Fits reports whether s has the shape of this model's state: the level
// count and grid it was built for.
func (m *Model) Fits(s *Snapshot) error {
	for _, err := range []error{
		sameShape("U", s.U, m.u), sameShape("V", s.V, m.v), sameShape("T", s.T, m.t), sameShape("S", s.S, m.s),
		sameLen("Eta", s.Eta, m.eta), sameLen("Ubt", s.Ubt, m.ubt), sameLen("Vbt", s.Vbt, m.vbt), sameLen("IceFlux", s.IceFlux, m.iceFlux),
	} {
		if err != nil {
			return err
		}
	}
	return nil
}

// Restore installs a checkpoint onto a model with identical configuration
// and bathymetry. A snapshot that does not fit (see Fits) is an error and
// leaves the model untouched.
func (m *Model) Restore(s *Snapshot) error {
	if err := m.Fits(s); err != nil {
		return err
	}
	m.step = s.Step
	for k := range m.u {
		copy(m.u[k], s.U[k])
		copy(m.v[k], s.V[k])
		copy(m.t[k], s.T[k])
		copy(m.s[k], s.S[k])
	}
	copy(m.eta, s.Eta)
	copy(m.ubt, s.Ubt)
	copy(m.vbt, s.Vbt)
	copy(m.iceFlux, s.IceFlux)
	m.updateDiagnostics()
	return nil
}
