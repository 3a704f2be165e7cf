package atmos

import (
	"fmt"
	"math"

	"foam/internal/pool"
	"foam/internal/spectral"
	"foam/internal/sphere"
)

// PhysicsVersion selects between the CCM2-style physics FOAM started with
// and the CCM3 updates (deep convection, precipitation evaporation,
// wind-dependent ocean roughness) that the paper reports "vastly improved"
// the tropical Pacific.
type PhysicsVersion int

const (
	// PhysicsCCM2 is the original configuration: Hack shallow convection
	// only, no stratiform precipitation evaporation, constant ocean
	// roughness.
	PhysicsCCM2 PhysicsVersion = iota
	// PhysicsCCM3 adds Zhang-McFarlane-style deep convection, evaporation
	// of stratiform precipitation and stability/wind-dependent ocean
	// surface roughness.
	PhysicsCCM3
)

func (p PhysicsVersion) String() string {
	if p == PhysicsCCM2 {
		return "CCM2"
	}
	return "CCM3"
}

// Config describes an atmosphere configuration. The zero value is not
// usable; start from DefaultConfig.
type Config struct {
	Trunc spectral.Truncation // spectral truncation (R15 in the paper)
	NLat  int                 // Gaussian latitudes (40 at R15)
	NLon  int                 // longitudes (48 at R15)
	NLev  int                 // vertical levels (18 in the paper)

	Dt             float64 // time step, seconds (1800 in the paper)
	SigmaTop       float64 // model top as sigma
	Diff4          float64 // del^4 hyperdiffusion coefficient, m^4/s
	RobertAlpha    float64 // Robert-Asselin filter coefficient
	RadiationEvery int     // radiation recomputation interval in steps (24 = twice daily)

	Physics PhysicsVersion

	// Adiabatic disables the column physics and moisture transport,
	// leaving the pure dynamical core (used by dynamics tests and the
	// resolution-scaling cost experiments).
	Adiabatic bool

	// OrographyScale multiplies the world's orography at core assembly
	// (0 means 1, unscaled; flattening is core.Config.Flat).
	OrographyScale float64

	// RotationScale multiplies the planetary rotation rate in the Coriolis
	// parameter (0 means 1, the physical rate). The scenario engine uses it
	// for doubled/slowed-rotation experiments.
	RotationScale float64

	// YearDays overrides the orbital period (days per year) used by the
	// solar declination cycle; 0 means the calendar default (360).
	YearDays float64
}

// rotation returns the effective rotation multiplier (RotationScale with
// the zero value meaning the physical rate).
func (c Config) rotation() float64 {
	if c.RotationScale == 0 {
		return 1
	}
	return c.RotationScale
}

// yearDays returns the effective orbital period in days.
func (c Config) yearDays() float64 {
	if c.YearDays == 0 {
		return sphere.DaysPerYear
	}
	return c.YearDays
}

// DefaultConfig returns the paper's R15 configuration: 48x40x18, 30-minute
// step, radiation twice per simulated day.
func DefaultConfig() Config {
	return Config{
		Trunc:          spectral.R15,
		NLat:           40,
		NLon:           48,
		NLev:           18,
		Dt:             1800,
		SigmaTop:       0.004,
		Diff4:          1e17,
		RobertAlpha:    0.06,
		RadiationEvery: 24,
		Physics:        PhysicsCCM3,
		OrographyScale: 1,
	}
}

// ConfigForTruncation scales the default configuration to another
// truncation, following the cost law of Section 2 of the paper: the time
// step shrinks linearly with resolution and the diffusion coefficient is
// scaled to keep the smallest resolved scale's damping time fixed.
func ConfigForTruncation(t spectral.Truncation, nlev int) Config {
	c := DefaultConfig()
	c.Trunc = t
	c.NLat, c.NLon = t.GridFor()
	c.NLev = nlev
	c.Dt = 1800 * 15 / float64(t.M)
	r := float64(spectral.R15.NMax()+1) / float64(t.NMax()+1)
	c.Diff4 = 1e17 * r * r * r * r
	return c
}

// Validate checks internal consistency.
func (c Config) Validate() error {
	if c.NLat < 2 || c.NLat%2 != 0 {
		// The transform pairs row j with its mirror row NLat-1-j.
		return fmt.Errorf("atmos: nlat %d must be a positive even number", c.NLat)
	}
	if c.NLon <= 2*c.Trunc.M {
		return fmt.Errorf("atmos: nlon %d cannot resolve truncation M=%d", c.NLon, c.Trunc.M)
	}
	if c.NLev < 2 {
		return fmt.Errorf("atmos: need >= 2 levels")
	}
	if c.Dt <= 0 {
		return fmt.Errorf("atmos: nonpositive dt")
	}
	if c.RadiationEvery < 1 {
		return fmt.Errorf("atmos: RadiationEvery must be >= 1")
	}
	if c.Diff4 < 0 {
		return fmt.Errorf("atmos: negative hyperdiffusion coefficient %g", c.Diff4)
	}
	if c.RotationScale < 0 {
		return fmt.Errorf("atmos: negative rotation scale %g", c.RotationScale)
	}
	if c.YearDays < 0 {
		return fmt.Errorf("atmos: negative year length %g", c.YearDays)
	}
	return nil
}

// specState is the spectral prognostic state at one time level.
type specState struct {
	vort [][]complex128 // [lev][coef] relative vorticity
	div  [][]complex128 // [lev][coef]
	temp [][]complex128 // [lev][coef]
	lnps []complex128   // [coef]
}

func newSpecState(nlev, ncoef int) *specState {
	s := &specState{lnps: make([]complex128, ncoef)}
	s.vort = make([][]complex128, nlev)
	s.div = make([][]complex128, nlev)
	s.temp = make([][]complex128, nlev)
	for k := 0; k < nlev; k++ {
		s.vort[k] = make([]complex128, ncoef)
		s.div[k] = make([]complex128, ncoef)
		s.temp[k] = make([]complex128, ncoef)
	}
	return s
}

func (s *specState) copyFrom(o *specState) {
	for k := range s.vort {
		copy(s.vort[k], o.vort[k])
		copy(s.div[k], o.div[k])
		copy(s.temp[k], o.temp[k])
	}
	copy(s.lnps, o.lnps)
}

// Model is a spectral primitive-equation atmosphere. It integrates the
// dynamical core and column physics, and exchanges surface fluxes through a
// Boundary (the coupler, in the coupled model).
type Model struct {
	// cfg is fixed after construction; Restore requires a model of
	// identical configuration.
	cfg  Config
	grid *sphere.Grid
	tr   *spectral.Transform
	vg   *VGrid
	si   *SemiImplicit // for full leapfrog interval dt
	siH  *SemiImplicit // for the startup half step

	cur, old *specState // time levels t and t-1

	q [][]float64 // grid specific humidity [lev][cell], kg/kg
	// phiS is installed once by SetOrography before the first step; forks
	// share identical boundary geometry.
	phiS []float64 // surface geopotential on grid, m^2/s^2

	boundary Boundary
	phy      *physicsState
	// pool is the executor's worker pool (nil = serial), attached by
	// SetPool: how a step runs, never simulation state.
	pool *pool.Pool

	step int
	fcor []float64 // Coriolis parameter per cell
	cosl []float64 // cos(lat) per cell (via 1-mu^2 at row)
	geom geomTables
	diag StepDiagnostics

	// CostTrace, when enabled with EnableCostTrace, records wall-time
	// breakdowns of the latest step for the parallel performance harness.
	// The clock reads behind costEnabled feed only lastCost, never the
	// simulation state.
	costEnabled bool
	lastCost    StepCost
}

// StepCost is the wall-time decomposition of one atmosphere step, used by
// the trace-driven parallel harness (see core/parallel.go): row-parallel
// work is divided among latitude blocks, replicated work is charged to
// every rank, and the per-latitude physics times carry the load imbalance
// the paper attributes to clouds and convection.
type StepCost struct {
	DynRows      float64   // row-parallel dynamics + transform seconds
	SemiImplicit float64   // replicated spectral solve seconds
	Moisture     float64   // row-parallel semi-Lagrangian transport
	PhysRows     []float64 // per-latitude-row physics seconds
	Boundary     float64   // surface exchange (coupler) seconds
}

// EnableCostTrace switches on per-step cost measurement.
func (m *Model) EnableCostTrace() {
	m.costEnabled = true
	m.lastCost.PhysRows = make([]float64, m.cfg.NLat)
}

// LastCost returns the cost decomposition of the most recent step (zero
// values unless EnableCostTrace was called).
func (m *Model) LastCost() StepCost { return m.lastCost }

// geomTables caches per-row geometry.
type geomTables struct {
	oneMu2 []float64 // per row
	mu     []float64
}

// StepDiagnostics carries per-step globals for monitoring and tests.
type StepDiagnostics struct {
	MeanPs      float64 // area-mean surface pressure, Pa
	MeanT       float64 // mass-weighted mean temperature, K
	MaxWind     float64 // max |u| over grid, m/s
	PrecipMean  float64 // area-mean precipitation rate, kg/m^2/s
	EvapMean    float64 // area-mean evaporation, kg/m^2/s
	KineticMean float64 // mean kinetic energy per unit mass, m^2/s^2
}

// Shared carries prebuilt immutable inputs an atmosphere model may adopt
// instead of rebuilding: the Gaussian grid and the spectral transform
// tables. Either field may be nil to build fresh. The transform is adopted
// via Share(), so the model gets its own pool binding over the shared
// tables and SetPool on one model never touches another.
type Shared struct {
	Grid      *sphere.Grid
	Transform *spectral.Transform
}

// New builds an atmosphere model. boundary supplies surface exchange; pass
// nil to use a UniformOcean at 288 K (useful for standalone tests).
func New(cfg Config, boundary Boundary) (*Model, error) {
	return NewShared(cfg, boundary, Shared{})
}

// NewShared builds an atmosphere model over prebuilt shared tables (see
// Shared). Non-nil inputs must match the configured resolution.
func NewShared(cfg Config, boundary Boundary, sh Shared) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Model{cfg: cfg}
	switch {
	case sh.Grid == nil:
		m.grid = sphere.NewGaussianGrid(cfg.NLat, cfg.NLon)
	case sh.Grid.NLat() != cfg.NLat || sh.Grid.NLon() != cfg.NLon:
		return nil, fmt.Errorf("atmos: shared grid is %dx%d, config wants %dx%d",
			sh.Grid.NLat(), sh.Grid.NLon(), cfg.NLat, cfg.NLon)
	default:
		m.grid = sh.Grid
	}
	switch {
	case sh.Transform == nil:
		m.tr = spectral.NewTransform(cfg.Trunc, cfg.NLat, cfg.NLon)
	case sh.Transform.Trunc != cfg.Trunc || sh.Transform.NLat != cfg.NLat || sh.Transform.NLon != cfg.NLon:
		return nil, fmt.Errorf("atmos: shared transform is R(%d,%d) on %dx%d, config wants R(%d,%d) on %dx%d",
			sh.Transform.Trunc.M, sh.Transform.Trunc.K, sh.Transform.NLat, sh.Transform.NLon,
			cfg.Trunc.M, cfg.Trunc.K, cfg.NLat, cfg.NLon)
	default:
		m.tr = sh.Transform.Share()
	}
	m.vg = NewVGrid(cfg.NLev, cfg.SigmaTop)
	m.si = NewSemiImplicit(m.vg, sphere.Radius, cfg.Trunc.NMax(), cfg.Dt)
	m.siH = NewSemiImplicit(m.vg, sphere.Radius, cfg.Trunc.NMax(), cfg.Dt/2)
	nc := cfg.Trunc.Count()
	m.cur = newSpecState(cfg.NLev, nc)
	m.old = newSpecState(cfg.NLev, nc)
	m.q = make([][]float64, cfg.NLev)
	for k := range m.q {
		m.q[k] = make([]float64, m.grid.Size())
	}
	m.phiS = make([]float64, m.grid.Size())
	m.fcor = make([]float64, m.grid.Size())
	m.cosl = make([]float64, m.grid.Size())
	m.geom.oneMu2 = make([]float64, cfg.NLat)
	m.geom.mu = make([]float64, cfg.NLat)
	for j := 0; j < cfg.NLat; j++ {
		mu := m.tr.Mu(j)
		m.geom.mu[j] = mu
		m.geom.oneMu2[j] = 1 - mu*mu
		f0 := 2 * sphere.Omega * cfg.rotation()
		for i := 0; i < cfg.NLon; i++ {
			c := j*cfg.NLon + i
			m.fcor[c] = f0 * mu
			m.cosl[c] = math.Sqrt(1 - mu*mu)
		}
	}
	if boundary == nil {
		boundary = NewUniformOcean(288.15)
	}
	m.boundary = boundary
	m.phy = newPhysicsState(cfg, m.grid.Size())
	m.initState()
	return m, nil
}

// SetPool attaches a pool to the model and its spectral transform. All
// parallel sections are bit-identical to the serial path (see
// internal/pool); a nil pool restores serial execution. The step
// workspace (and its per-worker scratch and spectral workspaces) is sized
// by the pool, so it is invalidated here and rebuilt on the next step.
func (m *Model) SetPool(p *pool.Pool) {
	m.pool = p
	m.tr.SetPool(p)
	m.phy.w = nil
}

// Grid returns the transform grid.
func (m *Model) Grid() *sphere.Grid { return m.grid }

// Config returns the model configuration.
func (m *Model) Config() Config { return m.cfg }

// VerticalGrid returns the sigma grid.
func (m *Model) VerticalGrid() *VGrid { return m.vg }

// StepCount returns the number of completed steps.
func (m *Model) StepCount() int { return m.step }

// Diagnostics returns globals from the most recent step.
func (m *Model) Diagnostics() StepDiagnostics { return m.diag }

// SetOrography installs a surface geopotential field (m^2/s^2 = g*height).
// Must be called before the first step.
func (m *Model) SetOrography(phiS []float64) {
	if len(phiS) != m.grid.Size() {
		panic("atmos: orography size mismatch")
	}
	copy(m.phiS, phiS)
	// Filter through the truncation so the spectral pressure-gradient terms
	// see exactly the resolved orography (avoids spectral ringing against
	// an unresolvable surface).
	spec := m.tr.Analyze(m.phiS)
	m.tr.SynthesizeInto(m.phiS, spec, nil)
	// Re-balance surface pressure against the new orography.
	m.initSurfacePressure()
}

// initState sets a resting, hydrostatically balanced initial condition with
// an Earth-like meridional temperature gradient and moisture profile, plus
// a tiny zonally asymmetric temperature perturbation to break symmetry.
func (m *Model) initState() {
	nlat, nlon, nlev := m.cfg.NLat, m.cfg.NLon, m.cfg.NLev
	tGrid := make([]float64, nlat*nlon)
	for k := 0; k < nlev; k++ {
		sig := m.vg.Full[k]
		for j := 0; j < nlat; j++ {
			mu := m.geom.mu[j]
			// Surface air temperature ~ 288 - 35*mu^2; lapse to the
			// tropopause, isothermal stratosphere.
			ts := 288 - 35*mu*mu
			t := tropProfile(ts, sig)
			for i := 0; i < nlon; i++ {
				lam := 2 * math.Pi * float64(i) / float64(nlon)
				pert := 0.1 * math.Sin(3*lam) * (1 - mu*mu)
				tGrid[j*nlon+i] = t + pert
			}
		}
		m.cur.temp[k] = m.tr.Analyze(tGrid)
		// Moisture: ~80% of saturation at the surface decaying upward.
		for j := 0; j < nlat; j++ {
			mu := m.geom.mu[j]
			ts := 288 - 35*mu*mu
			t := tropProfile(ts, sig)
			qs := SatHum(t, sig*P00)
			val := 0.8 * qs * math.Pow(sig, 2)
			for i := 0; i < nlon; i++ {
				m.q[k][j*nlon+i] = val
			}
		}
	}
	m.initSurfacePressure()
	m.old.copyFrom(m.cur)
	m.phy.init(m)
}

// initSurfacePressure sets lnps in approximate hydrostatic balance with the
// orography: ps = P00 * exp(-phiS/(R*T0)).
func (m *Model) initSurfacePressure() {
	g := make([]float64, m.grid.Size())
	for c := range g {
		g[c] = math.Log(P00) - m.phiS[c]/(RDry*280)
	}
	m.cur.lnps = m.tr.Analyze(g)
	copy(m.old.lnps, m.cur.lnps)
}

// tropProfile is the initial temperature at sigma given a surface value:
// 6.5 K/km lapse capped at 210 K (stratosphere).
func tropProfile(ts, sig float64) float64 {
	// Scale height approximation: z ~ -H ln(sigma), H=7.4 km.
	z := -7400 * math.Log(sig)
	t := ts - 0.0065*z
	if t < 210 {
		t = 210
	}
	return t
}

// SatHum returns saturation specific humidity (kg/kg) at temperature T (K)
// and pressure p (Pa) from the Tetens formula.
func SatHum(T, p float64) float64 { return SatHumFromVap(SatVap(T), p) }

// SatVap returns the saturation vapour pressure (Pa) at temperature T (K)
// from the Tetens formula.
func SatVap(T float64) float64 {
	return 610.78 * math.Exp(17.269*(T-273.16)/(T-35.86))
}

// SatHumFromVap returns the saturation specific humidity (kg/kg) of a
// saturation vapour pressure es at pressure p (both Pa), with es capped at
// p/2. Callers that hold T fixed across many p (the coupler's SST under
// each overlap piece) evaluate SatVap once and call this per p.
func SatHumFromVap(es, p float64) float64 {
	if es > 0.5*p {
		es = 0.5 * p
	}
	return EpsWV * es / (p - (1-EpsWV)*es)
}

// SetIsothermal replaces the state with a resting isothermal atmosphere at
// temperature t and uniform surface pressure: an exact steady state of the
// adiabatic equations over flat terrain. Used by dynamics tests.
func (m *Model) SetIsothermal(t float64) {
	nc := m.cfg.Trunc.Count()
	for k := 0; k < m.cfg.NLev; k++ {
		for i := 0; i < nc; i++ {
			m.cur.vort[k][i] = 0
			m.cur.div[k][i] = 0
			m.cur.temp[k][i] = 0
		}
		m.cur.temp[k][m.cfg.Trunc.Index(0, 0)] = complex(t*math.Sqrt2, 0)
	}
	for i := 0; i < nc; i++ {
		m.cur.lnps[i] = 0
	}
	m.cur.lnps[m.cfg.Trunc.Index(0, 0)] = complex(math.Log(P00)*math.Sqrt2, 0)
	m.old.copyFrom(m.cur)
	m.step = 0
}

// GridTemperature synthesizes the level-k temperature on the grid.
func (m *Model) GridTemperature(k int) []float64 {
	return m.tr.Synthesize(m.cur.temp[k])
}

// GridWinds synthesizes (u, v) at level k in m/s.
func (m *Model) GridWinds(k int) (u, v []float64) {
	U, V := m.tr.SynthesizeUV(m.cur.vort[k], m.cur.div[k])
	u = make([]float64, len(U))
	v = make([]float64, len(V))
	for j := 0; j < m.cfg.NLat; j++ {
		inv := 1 / math.Sqrt(m.geom.oneMu2[j])
		for i := 0; i < m.cfg.NLon; i++ {
			c := j*m.cfg.NLon + i
			u[c] = U[c] * inv
			v[c] = V[c] * inv
		}
	}
	return u, v
}

// GridPs synthesizes surface pressure in Pa.
func (m *Model) GridPs() []float64 {
	g := m.tr.Synthesize(m.cur.lnps)
	for c := range g {
		g[c] = math.Exp(g[c])
	}
	return g
}

// GridHumidity returns the level-k specific humidity field (the live
// slice; callers must not modify it).
func (m *Model) GridHumidity(k int) []float64 { return m.q[k] }

// Boundary returns the surface exchange provider.
func (m *Model) Boundary() Boundary { return m.boundary }

// Snapshot captures the complete prognostic and physics state for
// checkpointing. The returned struct is self-contained (deep copies).
type Snapshot struct {
	Step                   int
	VortC, DivC, TempC     [][]complex128
	VortO, DivO, TempO     [][]complex128
	LnpsC, LnpsO           []complex128
	Q                      [][]float64
	QR                     [][]float64
	SWDn, LWDn, Rain, Snow []float64
	ExTSurf, ExAlbedo      []float64
	MeanPrecip, MeanEvap   float64
}

func deepCopyC(a [][]complex128) [][]complex128 {
	out := make([][]complex128, len(a))
	for i := range a {
		out[i] = append([]complex128(nil), a[i]...)
	}
	return out
}

func deepCopyF(a [][]float64) [][]float64 {
	out := make([][]float64, len(a))
	for i := range a {
		out[i] = append([]float64(nil), a[i]...)
	}
	return out
}

// Snapshot returns a checkpoint of the atmosphere state.
func (m *Model) Snapshot() *Snapshot {
	return &Snapshot{
		Step:  m.step,
		VortC: deepCopyC(m.cur.vort), DivC: deepCopyC(m.cur.div), TempC: deepCopyC(m.cur.temp),
		VortO: deepCopyC(m.old.vort), DivO: deepCopyC(m.old.div), TempO: deepCopyC(m.old.temp),
		LnpsC:      append([]complex128(nil), m.cur.lnps...),
		LnpsO:      append([]complex128(nil), m.old.lnps...),
		Q:          deepCopyF(m.q),
		QR:         deepCopyF(m.phy.qr),
		SWDn:       append([]float64(nil), m.phy.swdn...),
		LWDn:       append([]float64(nil), m.phy.lwdn...),
		Rain:       append([]float64(nil), m.phy.rain...),
		Snow:       append([]float64(nil), m.phy.snow...),
		ExTSurf:    append([]float64(nil), m.phy.lastEx.TSurf...),
		ExAlbedo:   append([]float64(nil), m.phy.lastEx.Albedo...),
		MeanPrecip: m.phy.meanPrecip,
		MeanEvap:   m.phy.meanEvap,
	}
}

// sameLen and sameShape report a snapshot field whose length, or whose
// first differing row's length, is not the model's.
func sameLen[T any](name string, got, want []T) error {
	if len(got) != len(want) {
		return fmt.Errorf("atmos: snapshot field %s has length %d, the model has %d", name, len(got), len(want))
	}
	return nil
}

func sameShape[T any](name string, got, want [][]T) error {
	if len(got) != len(want) {
		return fmt.Errorf("atmos: snapshot field %s has %d levels, the model has %d", name, len(got), len(want))
	}
	for k := range want {
		if len(got[k]) != len(want[k]) {
			return fmt.Errorf("atmos: snapshot field %s level %d has length %d, the model has %d", name, k, len(got[k]), len(want[k]))
		}
	}
	return nil
}

// Fits reports whether s has the shape of this model's state: the level
// count, spectral truncation and grid it was built for.
func (m *Model) Fits(s *Snapshot) error {
	p := m.phy
	for _, err := range []error{
		sameShape("VortC", s.VortC, m.cur.vort), sameShape("DivC", s.DivC, m.cur.div), sameShape("TempC", s.TempC, m.cur.temp),
		sameShape("VortO", s.VortO, m.old.vort), sameShape("DivO", s.DivO, m.old.div), sameShape("TempO", s.TempO, m.old.temp),
		sameLen("LnpsC", s.LnpsC, m.cur.lnps), sameLen("LnpsO", s.LnpsO, m.old.lnps),
		sameShape("Q", s.Q, m.q), sameShape("QR", s.QR, p.qr),
		sameLen("SWDn", s.SWDn, p.swdn), sameLen("LWDn", s.LWDn, p.lwdn), sameLen("Rain", s.Rain, p.rain), sameLen("Snow", s.Snow, p.snow),
		sameLen("ExTSurf", s.ExTSurf, p.lastEx.TSurf), sameLen("ExAlbedo", s.ExAlbedo, p.lastEx.Albedo),
	} {
		if err != nil {
			return err
		}
	}
	return nil
}

// Restore installs a checkpoint previously produced by Snapshot on a model
// with the identical configuration. A snapshot that does not fit (see Fits)
// is an error and leaves the model untouched.
func (m *Model) Restore(s *Snapshot) error {
	if err := m.Fits(s); err != nil {
		return err
	}
	m.step = s.Step
	for k := range m.cur.vort {
		copy(m.cur.vort[k], s.VortC[k])
		copy(m.cur.div[k], s.DivC[k])
		copy(m.cur.temp[k], s.TempC[k])
		copy(m.old.vort[k], s.VortO[k])
		copy(m.old.div[k], s.DivO[k])
		copy(m.old.temp[k], s.TempO[k])
		copy(m.q[k], s.Q[k])
		copy(m.phy.qr[k], s.QR[k])
	}
	copy(m.cur.lnps, s.LnpsC)
	copy(m.old.lnps, s.LnpsO)
	copy(m.phy.swdn, s.SWDn)
	copy(m.phy.lwdn, s.LWDn)
	copy(m.phy.rain, s.Rain)
	copy(m.phy.snow, s.Snow)
	copy(m.phy.lastEx.TSurf, s.ExTSurf)
	copy(m.phy.lastEx.Albedo, s.ExAlbedo)
	m.phy.meanPrecip = s.MeanPrecip
	m.phy.meanEvap = s.MeanEvap
	m.updateDiagnostics()
	return nil
}
