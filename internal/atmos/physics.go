package atmos

import (
	"math"
	"time"

	"foam/internal/sphere"
)

// Solar constant, W/m^2.
const SolarConstant = 1367.0

// physicsState holds the physics working state: the stored radiative
// heating (recomputed only every RadiationEvery steps, as in the paper,
// which makes those steps visibly longer in the Figure-2 trace), the last
// surface exchange, and diagnosed precipitation.
type physicsState struct {
	cfg Config

	qr         [][]float64 // radiative heating, K/s [lev][cell]
	swdn, lwdn []float64   // surface downward radiation, W/m^2
	rain, snow []float64   // surface precipitation rates, kg/m^2/s
	cloudCol   []float64   // diagnosed column cloud fraction
	lastEx     *SurfaceExchange
	meanPrecip float64
	meanEvap   float64
	convActive int // columns with active deep convection last step (load imbalance)

	w         *work
	plusCache *specState

	// Per-step grid scratch.
	tg, qg, ug, vg      [][]float64
	baseT, baseU, baseV [][]float64 // pre-physics synthesis for increments
	ps                  []float64
	low                 *LowestLevel
}

//foam:coldpath
func newPhysicsState(cfg Config, ncell int) *physicsState {
	p := &physicsState{cfg: cfg}
	p.qr = make([][]float64, cfg.NLev)
	p.tg = make([][]float64, cfg.NLev)
	p.qg = make([][]float64, cfg.NLev)
	p.ug = make([][]float64, cfg.NLev)
	p.vg = make([][]float64, cfg.NLev)
	p.baseT = make([][]float64, cfg.NLev)
	p.baseU = make([][]float64, cfg.NLev)
	p.baseV = make([][]float64, cfg.NLev)
	for k := 0; k < cfg.NLev; k++ {
		p.qr[k] = make([]float64, ncell)
		p.tg[k] = make([]float64, ncell)
		p.qg[k] = make([]float64, ncell)
		p.ug[k] = make([]float64, ncell)
		p.vg[k] = make([]float64, ncell)
		p.baseT[k] = make([]float64, ncell)
		p.baseU[k] = make([]float64, ncell)
		p.baseV[k] = make([]float64, ncell)
	}
	p.swdn = make([]float64, ncell)
	p.lwdn = make([]float64, ncell)
	p.rain = make([]float64, ncell)
	p.snow = make([]float64, ncell)
	p.cloudCol = make([]float64, ncell)
	p.ps = make([]float64, ncell)
	p.low = &LowestLevel{
		NCell: ncell,
		T:     make([]float64, ncell), Q: make([]float64, ncell),
		U: make([]float64, ncell), V: make([]float64, ncell),
		Ps: make([]float64, ncell), Z: make([]float64, ncell),
		SWDown: make([]float64, ncell), LWDown: make([]float64, ncell),
		RainRate: make([]float64, ncell), SnowRate: make([]float64, ncell),
		CosZ: make([]float64, ncell),
	}
	return p
}

// init establishes an initial surface exchange so radiation has a surface
// temperature and albedo on the very first step.
func (p *physicsState) init(m *Model) {
	n := m.grid.Size()
	ex := NewSurfaceExchange(n)
	for j := 0; j < m.cfg.NLat; j++ {
		mu := m.geom.mu[j]
		for i := 0; i < m.cfg.NLon; i++ {
			c := j*m.cfg.NLon + i
			ex.TSurf[c] = 288 - 35*mu*mu
			ex.Albedo[c] = 0.1
		}
	}
	p.lastEx = ex
}

// bindPhysicsPhases binds the pooled physics phases into the step workspace
// (see bindPhases for why these are bound once rather than written as
// closure literals at the Run call sites).
//
//foam:hotphases
func (m *Model) bindPhysicsPhases(w *work) {
	phy := m.phy
	cfg := m.cfg
	nlat, nlon, nlev := cfg.NLat, cfg.NLon, cfg.NLev
	dt := cfg.Dt
	kb := nlev - 1

	// Grid fields of the provisional state. Keep pre-physics copies so the
	// increments can be formed without re-synthesizing afterwards.
	w.phPhyGrid = func(_, k0, k1 int) {
		for k := k0; k < k1; k++ {
			copy(phy.baseT[k], phy.tg[k])
			for j := 0; j < nlat; j++ {
				inv := 1 / math.Sqrt(m.geom.oneMu2[j])
				for i := 0; i < nlon; i++ {
					c := j*nlon + i
					phy.ug[k][c] = phy.baseU[k][c] * inv
					phy.vg[k][c] = phy.baseV[k][c] * inv
				}
			}
			copy(phy.qg[k], m.q[k])
		}
	}

	// Radiation rows are independent: every radiation column reads shared
	// state and writes only its own cell.
	w.phRadiation = func(worker, j0, j1 int) {
		rs := w.rad[worker]
		decl, frac := w.decl, w.frac
		for j := j0; j < j1; j++ {
			var tRow time.Time
			if m.costEnabled {
				//foam:allow nondeterminism wall-clock cost trace feeds the load-balance diagnostic, never the simulation state
				tRow = time.Now()
			}
			sinLat, cosLat := math.Sin(w.lats[j]), math.Cos(w.lats[j])
			for i := 0; i < nlon; i++ {
				c := j*nlon + i
				lon := 2 * math.Pi * float64(i) / float64(nlon)
				h := 2*math.Pi*frac + lon - math.Pi
				cz := sinLat*math.Sin(decl) + cosLat*math.Cos(decl)*math.Cos(h)
				if cz < 0 {
					cz = 0
				}
				phy.low.CosZ[c] = cz
				m.radiationColumn(c, cz, rs)
			}
			if m.costEnabled {
				//foam:allow nondeterminism wall-clock cost trace feeds the load-balance diagnostic, never the simulation state
				m.lastCost.PhysRows[j] += time.Since(tRow).Seconds()
			}
		}
	}

	// Lowest-level state for the surface.
	w.phLowest = func(_, cLo, cHi int) {
		lnLow := m.vg.lnLow[kb] // ln(1/sigma_kb): Half[nlev] is exactly 1
		for c := cLo; c < cHi; c++ {
			phy.low.T[c] = phy.tg[kb][c]
			phy.low.Q[c] = phy.qg[kb][c]
			phy.low.U[c] = phy.ug[kb][c]
			phy.low.V[c] = phy.vg[kb][c]
			phy.low.Ps[c] = phy.ps[c]
			phy.low.Z[c] = RDry * phy.tg[kb][c] / sphere.Gravity * lnLow
			phy.low.SWDown[c] = phy.swdn[c]
			phy.low.LWDown[c] = phy.lwdn[c]
			phy.low.RainRate[c] = phy.rain[c]
			phy.low.SnowRate[c] = phy.snow[c]
		}
	}

	// Column physics rows run in parallel with a per-worker column; every
	// column writes only its own cell.
	w.phPhysCols = func(worker, j0, j1 int) {
		col := w.cols[worker]
		ex := w.ex
		for j := j0; j < j1; j++ {
			var tRow time.Time
			if m.costEnabled {
				//foam:allow nondeterminism wall-clock cost trace feeds the load-balance diagnostic, never the simulation state
				tRow = time.Now()
			}
			for i := 0; i < nlon; i++ {
				c := j*nlon + i
				col.load(m, c)
				col.applyRadiation(m, c, dt)
				col.surfaceAndDiffusion(m, c, ex, dt)
				col.dryAdjust()
				if col.convection(m, c, dt) {
					w.deepCount[worker]++
				}
				col.condensation(m, c, dt)
				col.store(m, c, dt)
			}
			if m.costEnabled {
				//foam:allow nondeterminism wall-clock cost trace feeds the load-balance diagnostic, never the simulation state
				m.lastCost.PhysRows[j] += time.Since(tRow).Seconds()
			}
		}
	}

	// Fold the physics increments back into the spectral state: parallel
	// over levels with per-worker grid scratch.
	w.phFoldGrid = func(_, k0, k1 int) {
		for k := k0; k < k1; k++ {
			// tg was updated in place by column physics; the spectral
			// increment is the new grid value minus the pre-physics
			// synthesis.
			dT := w.dTs[k]
			for c := range dT {
				dT[c] = phy.tg[k][c] - phy.baseT[k][c]
			}
			// Momentum increments, converted to U=u cos(lat) images.
			dU, dV := w.dUs[k], w.dVs[k]
			for j := 0; j < nlat; j++ {
				cl := math.Sqrt(m.geom.oneMu2[j])
				for i := 0; i < nlon; i++ {
					c := j*nlon + i
					dU[c] = phy.ug[k][c]*cl - phy.baseU[k][c]
					dV[c] = phy.vg[k][c]*cl - phy.baseV[k][c]
				}
			}
		}
	}
	w.phFoldAdd = func(_, k0, k1 int) {
		plus := w.plus
		for k := k0; k < k1; k++ {
			scr := w.specT[k]
			for idx := range plus.temp[k] {
				plus.temp[k][idx] += scr[idx]
			}
			scr = w.specZ[k]
			for idx := range plus.vort[k] {
				plus.vort[k][idx] += scr[idx]
			}
			scr = w.specD[k]
			for idx := range plus.div[k] {
				plus.div[k][idx] += scr[idx]
			}
			copy(m.q[k], phy.qg[k])
		}
	}
}

// physicsStep applies one interval of column physics to the provisional
// state plus (temperature, winds) and to the grid moisture in place.
func (m *Model) physicsStep(plus *specState) {
	phy := m.phy
	cfg := m.cfg
	nlat, nlon, nlev := cfg.NLat, cfg.NLon, cfg.NLev
	ncell := nlat * nlon
	dt := cfg.Dt
	w := phy.w
	w.plus = plus

	// Grid fields of the provisional state, batched: every level's
	// temperature in one table pass, every level's winds in another.
	m.tr.SynthesizeManyInto(phy.tg, plus.temp, w.wsMany)
	m.tr.SynthesizeUVManyInto(phy.baseU, phy.baseV, plus.vort, plus.div, w.wsMany)
	m.pool.Run(nlev, w.phPhyGrid)
	m.tr.SynthesizeInto(w.lnpsG, plus.lnps, w.ws0)
	for c := 0; c < ncell; c++ {
		phy.ps[c] = math.Exp(w.lnpsG[c])
	}

	// Time of day/year for the solar geometry (360-day year unless the
	// scenario overrides the orbital period).
	tdays := float64(m.step) * dt / sphere.SecondsPerDay
	w.decl = -23.44 * sphere.Deg2Rad * math.Cos(2*math.Pi*(tdays+10)/cfg.yearDays())
	w.frac = tdays - math.Floor(tdays)

	// Radiation on its own (longer) interval.
	if m.step%cfg.RadiationEvery == 0 {
		m.pool.Run(nlat, w.phRadiation)
	}

	m.pool.Run(ncell, w.phLowest)
	var tB time.Time
	if m.costEnabled {
		//foam:allow nondeterminism wall-clock cost trace feeds the load-balance diagnostic, never the simulation state
		tB = time.Now()
	}
	ex := m.boundary.Exchange(phy.low, dt)
	if m.costEnabled {
		//foam:allow nondeterminism wall-clock cost trace feeds the load-balance diagnostic, never the simulation state
		m.lastCost.Boundary = time.Since(tB).Seconds()
	}
	phy.lastEx = ex
	w.ex = ex

	// Column physics. Precipitation restarts each step (the rates handed
	// to the surface above were last step's). The global means are
	// accumulated afterwards in a serial ascending-cell pass, the exact
	// summation order of the serial loop.
	for c := 0; c < ncell; c++ {
		phy.rain[c] = 0
		phy.snow[c] = 0
	}
	for i := range w.deepCount {
		w.deepCount[i] = 0
	}
	m.pool.Run(nlat, w.phPhysCols)
	phy.convActive = 0
	for _, n := range w.deepCount {
		phy.convActive += n
	}
	var sumP, sumE, sumW float64
	for j := 0; j < nlat; j++ {
		for i := 0; i < nlon; i++ {
			c := j*nlon + i
			wt := m.grid.Area(j, i)
			sumP += (phy.rain[c] + phy.snow[c]) * wt
			sumE += ex.Evap[c] * wt
			sumW += wt
		}
	}
	phy.meanPrecip = sumP / sumW
	phy.meanEvap = sumE / sumW

	// Fold the physics increments back into the spectral state: grid
	// increments per level, then one fused analysis pass for temperature
	// and one shared-row pass for the vorticity/divergence pair.
	m.pool.Run(nlev, w.phFoldGrid)
	m.tr.AnalyzeManyInto(w.specT, w.dTs, w.wsMany)
	m.tr.AnalyzeDivPairManyInto(w.specZ, w.specD, w.dVs, w.dUs, 1, -1, 1, 1, w.wsMany)
	m.pool.Run(nlev, w.phFoldAdd)
	w.ex = nil
}

// radScratch is per-worker scratch for radiationColumn.
type radScratch struct {
	dtau, cld, wq []float64
	up, dn        []float64
	trans, emit   []float64 // layer transmissivity exp(-dtau) and blackbody emission
}

//foam:coldpath
func newRadScratch(nl int) *radScratch {
	return &radScratch{
		dtau: make([]float64, nl), cld: make([]float64, nl), wq: make([]float64, nl),
		up: make([]float64, nl+1), dn: make([]float64, nl+1),
		trans: make([]float64, nl), emit: make([]float64, nl),
	}
}

// Pow4 is math.Pow(x, 4) for finite positive x of ordinary magnitude: Pow
// squares the mantissa twice with the same two roundings, and scaling by a
// power of two is exact (TestPow4ByMultiplication pins the equality).
func Pow4(x float64) float64 {
	x2 := x * x
	return x2 * x2
}

// Pow3 is math.Pow(x, 3) under the same conditions: Pow multiplies the
// mantissa by its square, x*(x*x) (TestPow3ByMultiplication).
func Pow3(x float64) float64 {
	return x * (x * x)
}

// radiationColumn computes the radiative heating profile and surface fluxes
// for one column, storing them for reuse until the next radiation step.
// rs provides the column work arrays; every entry read is written first.
func (m *Model) radiationColumn(c int, cosz float64, rs *radScratch) {
	phy := m.phy
	nlev := m.cfg.NLev
	ps := phy.ps[c]
	ts := phy.lastEx.TSurf[c]

	// Layer optical depths (water vapor + well-mixed absorber + cloud).
	dtau := rs.dtau
	cld := rs.cld
	colq := 0.0
	cldCol := 0.0
	for k := 0; k < nlev; k++ {
		dp := m.vg.DSig[k] * ps
		q := phy.qg[k][c]
		p := m.vg.Full[k] * ps
		rh := q / math.Max(SatHum(phy.tg[k][c], p), 1e-9)
		f := (rh - 0.75) / 0.25
		if f < 0 {
			f = 0
		} else if f > 1 {
			f = 1
		}
		cld[k] = f * f
		if cld[k] > cldCol {
			cldCol = cld[k]
		}
		colq += q * dp / sphere.Gravity
		dtau[k] = (0.18*q + 4.0e-5) * dp / sphere.Gravity
		dtau[k] += 6 * cld[k] * m.vg.DSig[k]
	}
	phy.cloudCol[c] = cldCol

	// Longwave two-stream with linear-in-layer emission.
	up := rs.up
	dn := rs.dn
	trans, emit := rs.trans, rs.emit
	dn[0] = 0
	for k := 0; k < nlev; k++ {
		e := math.Exp(-dtau[k])
		b := StefBo * Pow4(phy.tg[k][c])
		trans[k], emit[k] = e, b
		dn[k+1] = dn[k]*e + b*(1-e)
	}
	up[nlev] = StefBo * Pow4(ts)
	for k := nlev - 1; k >= 0; k-- {
		e, b := trans[k], emit[k]
		up[k] = up[k+1]*e + b*(1-e)
	}
	phy.lwdn[c] = dn[nlev]

	// Shortwave: cloud reflection, bulk water-vapor absorption.
	s := SolarConstant * cosz
	refl := 0.45 * cldCol
	absFrac := 0.12 + 0.08*(1-math.Exp(-colq/20))
	swAbs := s * (1 - refl) * absFrac
	phy.swdn[c] = s * (1 - refl) * (1 - absFrac)

	// Heating rates: LW flux divergence plus distributed SW absorption.
	wq := rs.wq
	wqTot := 0.0
	for k := 0; k < nlev; k++ {
		wq[k] = (phy.qg[k][c] + 2e-4) * m.vg.DSig[k]
		wqTot += wq[k]
	}
	for k := 0; k < nlev; k++ {
		dp := m.vg.DSig[k] * ps
		net := (up[k+1] - dn[k+1]) - (up[k] - dn[k])
		hLW := net * sphere.Gravity / (Cp * dp)
		hSW := swAbs * (wq[k] / wqTot) * sphere.Gravity / (Cp * dp)
		phy.qr[k][c] = hLW + hSW
	}
}

// column is per-column scratch for the moist physics. The trailing work
// arrays back the boundary-layer tridiagonal solve and the deep-convection
// parcel profile, so a column never allocates per cell.
type column struct {
	nl         int
	T, Q, U, V []float64
	p, dp, z   []float64
	ps         float64
	// Exner tables of the loaded column: ex[k] = (p_k/P00)^kappa on every
	// level and exInv[k] = (P00/p_k)^kappa on the boundary-layer levels
	// kTop..nl-1, each the product of a sigma factor (VGrid.sigK, sigKInv)
	// and the column's (ps/P00)^(±kappa).
	ex, exInv []float64
	kTop      int // first level of the boundary-layer diffusion

	sub, diag, sup, rhs []float64
	buoy, dTd           []float64
}

//foam:coldpath
func newColumn(nl int) *column {
	return &column{nl: nl, kTop: nl - nl/3 - 1,
		ex: make([]float64, nl), exInv: make([]float64, nl),
		T: make([]float64, nl), Q: make([]float64, nl),
		U: make([]float64, nl), V: make([]float64, nl),
		p: make([]float64, nl), dp: make([]float64, nl), z: make([]float64, nl),
		sub: make([]float64, nl), diag: make([]float64, nl),
		sup: make([]float64, nl), rhs: make([]float64, nl),
		buoy: make([]float64, nl), dTd: make([]float64, nl)}
}

func (col *column) load(m *Model, c int) {
	phy := m.phy
	col.ps = phy.ps[c]
	psK, psKInv := math.Pow(col.ps/P00, Kappa), math.Pow(P00/col.ps, Kappa)
	for k := 0; k < col.nl; k++ {
		col.T[k] = phy.tg[k][c]
		col.Q[k] = math.Max(phy.qg[k][c], 1e-9)
		col.U[k] = phy.ug[k][c]
		col.V[k] = phy.vg[k][c]
		col.p[k] = m.vg.Full[k] * col.ps
		col.dp[k] = m.vg.DSig[k] * col.ps
		col.ex[k] = m.vg.sigK[k] * psK
		if k >= col.kTop {
			col.exInv[k] = m.vg.sigKInv[k] * psKInv
		}
	}
	// Heights by hypsometric integration from the surface.
	zh := 0.0
	for k := col.nl - 1; k >= 0; k-- {
		col.z[k] = zh + RDry*col.T[k]/sphere.Gravity*m.vg.lnLow[k]
		zh = col.z[k] + RDry*col.T[k]/sphere.Gravity*m.vg.lnUp[k]
	}
}

func (col *column) store(m *Model, c int, dt float64) {
	phy := m.phy
	for k := 0; k < col.nl; k++ {
		phy.tg[k][c] = col.T[k]
		phy.qg[k][c] = col.Q[k]
		phy.ug[k][c] = col.U[k]
		phy.vg[k][c] = col.V[k]
	}
}

func (col *column) applyRadiation(m *Model, c int, dt float64) {
	for k := 0; k < col.nl; k++ {
		col.T[k] += m.phy.qr[k][c] * dt
	}
}

// diffuseField solves the implicit vertical diffusion for one field over
// levels kTop..nl-1 using the column's tridiagonal work arrays.
func (col *column) diffuseField(x []float64, isTheta bool, kTop, n int, kmix, dt float64) {
	sub, diag, sup, rhs := col.sub[:n], col.diag[:n], col.sup[:n], col.rhs[:n]
	for r := 0; r < n; r++ {
		k := kTop + r
		v := x[k]
		if isTheta {
			v = x[k] * col.exInv[k]
		}
		rhs[r] = v
		diag[r] = 1
		sub[r], sup[r] = 0, 0
		if r > 0 {
			dz := col.z[k-1] - col.z[k]
			a := kmix * dt / (dz * dz)
			sub[r] = -a
			diag[r] += a
		}
		if r < n-1 {
			dz := col.z[k] - col.z[k+1]
			a := kmix * dt / (dz * dz)
			sup[r] = -a
			diag[r] += a
		}
	}
	TriDiag(sub, diag, sup, rhs)
	for r := 0; r < n; r++ {
		k := kTop + r
		if isTheta {
			x[k] = rhs[r] * col.ex[k]
		} else {
			x[k] = rhs[r]
		}
	}
}

// surfaceAndDiffusion applies the surface fluxes to the lowest layer and
// mixes the boundary layer with an implicit stability-dependent K-profile.
func (col *column) surfaceAndDiffusion(m *Model, c int, ex *SurfaceExchange, dt float64) {
	nl := col.nl
	kb := nl - 1
	mass := col.dp[kb] / sphere.Gravity // kg/m^2 of lowest layer
	col.T[kb] += ex.Sensible[c] * dt / (Cp * mass)
	col.Q[kb] += ex.Evap[c] * dt / mass
	col.U[kb] -= ex.TauX[c] * dt / mass
	col.V[kb] -= ex.TauY[c] * dt / mass

	// K-profile: strong mixing where the column is statically unstable
	// relative to the surface layer, weak elsewhere; active in the lowest
	// third of the model levels.
	kTop := col.kTop
	n := nl - kTop
	if n < 2 {
		return
	}
	unstable := ex.TSurf[c] > col.T[kb]+0.2
	kmix := 5.0
	if unstable {
		kmix = 40.0
	}
	// Implicit diffusion in z over levels kTop..nl-1 for T (as potential
	// temperature), Q, U, V.
	col.diffuseField(col.T, true, kTop, n, kmix, dt)
	col.diffuseField(col.Q, false, kTop, n, kmix, dt)
	col.diffuseField(col.U, false, kTop, n, kmix, dt)
	col.diffuseField(col.V, false, kTop, n, kmix, dt)
}

// dryAdjust removes dry static instability by downward-pass pairwise mixing
// to the adiabat, conserving enthalpy.
func (col *column) dryAdjust() {
	nl := col.nl
	for pass := 0; pass < 2; pass++ {
		for k := nl - 1; k > 0; k-- {
			cLow, cUp := col.ex[k], col.ex[k-1]
			thLow := col.T[k] / cLow
			thUp := col.T[k-1] / cUp
			if thLow > thUp+1e-4 {
				// Equalize potential temperature while conserving the pair's
				// enthalpy exactly: theta = sum(T dp) / sum((p/P00)^kappa dp).
				w1, w2 := col.dp[k], col.dp[k-1]
				thM := (col.T[k]*w1 + col.T[k-1]*w2) / (cLow*w1 + cUp*w2)
				col.T[k] = thM * cLow
				col.T[k-1] = thM * cUp
			}
		}
	}
}

// convection applies the Hack-style shallow scheme and (CCM3) the
// Zhang-McFarlane-style CAPE-relaxation deep scheme. Returns whether deep
// convection was active (a source of the load imbalance the paper notes).
func (col *column) convection(m *Model, c int, dt float64) bool {
	col.hackShallow(m, c, dt)
	if m.cfg.Physics == PhysicsCCM3 {
		return col.zmDeep(m, c, dt)
	}
	return false
}

// hackShallow mixes adjacent layer pairs where moist static energy
// decreases strongly with height, mimicking the CCM2 mass-flux scheme.
func (col *column) hackShallow(m *Model, c int, dt float64) {
	nl := col.nl
	rate := dt / 3600.0 // one-hour adjustment time scale
	if rate > 1 {
		rate = 1
	}
	for k := nl - 1; k > nl/2; k-- {
		hLow := Cp*col.T[k] + sphere.Gravity*col.z[k] + LVap*col.Q[k]
		hUp := Cp*col.T[k-1] + sphere.Gravity*col.z[k-1] + LVap*col.Q[k-1]
		if hLow > hUp+200 && col.Q[k] > 0.7*SatHum(col.T[k], col.p[k]) {
			// Exchange a fraction of the instability between the layers,
			// conserving column moist static energy and water.
			w1, w2 := col.dp[k], col.dp[k-1]
			dq := rate * 0.25 * (col.Q[k] - col.Q[k-1])
			col.Q[k] -= dq
			col.Q[k-1] += dq * w1 / w2
			dh := rate * 0.25 * (hLow - hUp) / Cp
			col.T[k] -= dh
			col.T[k-1] += dh * w1 / w2
		}
	}
}

// zmDeep: parcel ascent from the lowest level; when CAPE exceeds a
// threshold the environment is relaxed toward the parcel profile and
// boundary-layer moisture is consumed, with heating scaled so column
// enthalpy change balances latent release of the moisture sink. The
// precipitation produced is credited to the deep scheme.
func (col *column) zmDeep(m *Model, c int, dt float64) bool {
	nl := col.nl
	kb := nl - 1
	tp := col.T[kb]
	qp := col.Q[kb]
	buoy := col.buoy
	for k := range buoy {
		buoy[k] = 0
	}
	cape := 0.0
	qs := SatHum(tp, col.p[kb]) // parcel saturation at the level it leaves
	for k := kb - 1; k >= 0; k-- {
		// Lift: dry adiabatic unless saturated, then pseudoadiabatic.
		dlnp := math.Log(col.p[k] / col.p[k+1]) // negative going up
		moist := qp >= qs
		if moist {
			// Moist ascent: reduced lapse via latent heating factor.
			gamma := (1 + LVap*qs/(RDry*tp)) / (1 + LVap*LVap*qs*EpsWV/(Cp*RDry*tp*tp))
			tp += Kappa * tp * gamma * dlnp
		} else {
			tp += Kappa * tp * dlnp
		}
		// Saturation at arrival: caps the moist parcel now and, tp being
		// final, is the saturation it leaves with on the next lift.
		qs = SatHum(tp, col.p[k])
		if moist && qs < qp {
			qp = qs
		}
		b := tp*(1+0.61*qp) - col.T[k]*(1+0.61*col.Q[k])
		buoy[k] = b
		if b > 0 {
			cape += RDry * b * (-dlnp)
		}
	}
	if cape < 70 {
		return false
	}
	tau := 7200.0
	f := dt / tau
	if f > 0.5 {
		f = 0.5
	}
	// Tentative heating where buoyant; moisture sink from the lowest
	// quarter of the column.
	heat := 0.0 // column integral, J/m^2
	dT := col.dTd
	for k := range dT {
		dT[k] = 0
	}
	for k := 0; k < nl; k++ {
		if buoy[k] > 0 {
			dT[k] = f * math.Min(buoy[k], 5)
			heat += Cp * dT[k] * col.dp[k] / sphere.Gravity
		}
	}
	sink := 0.0
	kSrc := nl - nl/4
	for k := kSrc; k < nl; k++ {
		dq := f * 0.5 * col.Q[k]
		sink += dq * col.dp[k] / sphere.Gravity
	}
	if sink <= 0 || heat <= 0 {
		return false
	}
	// Scale heating to match latent release of the actual moisture sink.
	scale := LVap * sink / heat
	if scale > 2 {
		scale = 2
	}
	for k := 0; k < nl; k++ {
		col.T[k] += dT[k] * scale
	}
	condensed := 0.0
	for k := kSrc; k < nl; k++ {
		dq := f * 0.5 * col.Q[k]
		// Only remove the share matched by scaled heating.
		dq *= scale * heat / (LVap * sink)
		col.Q[k] -= dq
		condensed += dq * col.dp[k] / sphere.Gravity
	}
	m.phy.rain[c] += condensed / dt // provisional; repartitioned in condensation
	return true
}

// condensation removes supersaturation (stratiform rain), optionally
// re-evaporating falling precipitation in subsaturated layers (the CCM3
// addition), and splits the surface precipitation into rain and snow using
// the paper's rule (snow when the ground and lowest two levels are below
// freezing — here, the lowest two levels).
func (col *column) condensation(m *Model, c int, dt float64) {
	nl := col.nl
	flux := 0.0 // falling condensate, kg/m^2/s
	for k := 0; k < nl; k++ {
		qs := SatHum(col.T[k], col.p[k])
		if col.Q[k] > qs {
			gam := 1 + LVap*LVap*qs*EpsWV/(Cp*RDry*col.T[k]*col.T[k])
			dq := (col.Q[k] - qs) / gam
			col.Q[k] -= dq
			col.T[k] += LVap / Cp * dq
			flux += dq * col.dp[k] / sphere.Gravity / dt
		} else if m.cfg.Physics == PhysicsCCM3 && flux > 0 {
			// Evaporate part of the falling precipitation into this
			// subsaturated layer.
			deficit := (qs - col.Q[k]) * col.dp[k] / sphere.Gravity / dt
			ev := math.Min(0.2*flux, 0.5*deficit)
			if ev > 0 {
				col.Q[k] += ev * dt * sphere.Gravity / col.dp[k]
				col.T[k] -= LVap / Cp * ev * dt * sphere.Gravity / col.dp[k]
				flux -= ev
			}
		}
	}
	// Partition at the surface.
	snow := col.T[nl-1] < 273.15 && col.T[nl-2] < 273.15
	phy := m.phy
	if snow {
		phy.snow[c] += flux
	} else {
		phy.rain[c] += flux
	}
}
