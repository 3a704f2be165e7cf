package atmos

import (
	"math"
	"time"

	"foam/internal/spectral"
	"foam/internal/sphere"
)

// work holds the per-step working state, allocated once (and rebuilt when
// the worker pool changes): grid scratch, spectral tendency buffers,
// per-worker scratch keyed by pool worker id, the spectral workspaces, and
// the pre-bound pooled phase closures. Binding every pool.Run body here at
// construction — with per-step values staged through fields rather than
// captured — is what makes the steady-state step allocation-free: a
// closure literal at a Run call site would be heap-allocated on every call.
type work struct {
	U, V, zg, dg, tg [][]float64 // per level grid fields
	nU, nV, tSrc     [][]float64
	fluxA, fluxB     [][]float64
	vgq              [][]float64 // V·grad(lnps) per level
	aCol             [][]float64 // D + V·grad(lnps)
	sdot             [][]float64 // sigma-dot at interior half levels [1..nl-1]
	cum              [][]float64 // cumulative integral of aCol to full level k
	omgp             [][]float64 // omega/p
	psSrc            []float64
	qs, dqsdl, hqs   []float64
	nOf              []int // total wavenumber per spectral index

	// Spectral tendency buffers.
	nz, nd, nt [][]complex128
	np         []complex128

	// Per-level buffers feeding the fused multi-field transforms: the
	// energy grid and its spectral image, the flux-divergence spectral
	// image, and the physics increments (grid and spectral).
	eG            [][]float64
	dTs, dUs, dVs [][]float64
	specE, specF  [][]complex128
	specT         [][]complex128
	specZ, specD  [][]complex128

	// Pre-assembled batch headers for the fused transform entry points.
	// Grids point at stable per-level buffers and are built once; the
	// spec side of synthBatch references m.cur, which swaps identity
	// every step, so it is refilled (pointer copies only) per call.
	synthGrids [][]float64    // [zg..., dg..., tg...]
	synthSpecs [][]complex128 // [cur.vort..., cur.div..., cur.temp...]
	anaGrids   [][]float64    // [eG..., tSrc...]
	anaSpecs   [][]complex128 // [specE..., nt...]
	diagGrids  [][]float64    // [tg..., diagG]: updateDiagnostics, between steps

	// ws0 serves the remaining single-field transform calls; wsMany is
	// sized for the widest fused batch (3·nlev fields). All transforms
	// now run at top level, parallel internally over rows/harmonics, so
	// per-worker workspaces are no longer needed.
	ws0    *spectral.Workspace
	wsMany *spectral.Workspace

	// Per-worker scratch, indexed by pool worker id.
	ttil, yv     [][]complex128
	rhsRe, rhsIm [][]float64
	luX          [][]float64
	qNew         [][]float64 // semi-Lagrangian horizontal target
	colQ         [][]float64 // semi-Lagrangian vertical column
	cols         []*column
	rad          []*radScratch
	deepCount    []int

	lats  []float64 // asin(mu) per row (semi-Lagrangian)
	lnpsG []float64 // grid ln(ps) (physics)
	diagG []float64 // diagnostics grid scratch
	diagU []float64
	diagV []float64

	// Per-step values staged for the phases below.
	dt         float64
	si         *SemiImplicit
	plus       *specState
	ex         *SurfaceExchange
	decl, frac float64

	phColMass, phColumns, phNonlin, phGridE, phSpecFix func(worker, lo, hi int)
	phNpAdd, phThermoAdd, phSolve, phHyper, phFilter   func(worker, lo, hi int)
	phSLHoriz, phSLVert                                func(worker, lo, hi int)
	phPhyGrid, phRadiation, phLowest, phPhysCols       func(worker, lo, hi int)
	phFoldGrid, phFoldAdd                              func(worker, lo, hi int)
}

//foam:coldpath
func newWork(m *Model) *work {
	nlev, ncell := m.cfg.NLev, m.grid.Size()
	nworkers := m.pool.Workers()
	w := &work{}
	alloc := func() [][]float64 {
		a := make([][]float64, nlev)
		for k := range a {
			a[k] = make([]float64, ncell)
		}
		return a
	}
	w.U, w.V, w.zg, w.dg, w.tg = alloc(), alloc(), alloc(), alloc(), alloc()
	w.nU, w.nV, w.tSrc = alloc(), alloc(), alloc()
	w.fluxA, w.fluxB = alloc(), alloc()
	w.vgq, w.aCol, w.cum, w.omgp = alloc(), alloc(), alloc(), alloc()
	w.sdot = make([][]float64, nlev+1)
	for k := range w.sdot {
		w.sdot[k] = make([]float64, ncell)
	}
	w.psSrc = make([]float64, ncell)
	w.qs = make([]float64, ncell)
	w.dqsdl = make([]float64, ncell)
	w.hqs = make([]float64, ncell)
	t := m.cfg.Trunc
	w.nOf = make([]int, t.Count())
	for mm := 0; mm <= t.M; mm++ {
		for n := mm; n <= mm+t.K; n++ {
			w.nOf[t.Index(mm, n)] = n
		}
	}
	ncf := t.Count()
	w.nz = make([][]complex128, nlev)
	w.nd = make([][]complex128, nlev)
	w.nt = make([][]complex128, nlev)
	w.specE = make([][]complex128, nlev)
	w.specF = make([][]complex128, nlev)
	w.specT = make([][]complex128, nlev)
	w.specZ = make([][]complex128, nlev)
	w.specD = make([][]complex128, nlev)
	for k := 0; k < nlev; k++ {
		w.nz[k] = make([]complex128, ncf)
		w.nd[k] = make([]complex128, ncf)
		w.nt[k] = make([]complex128, ncf)
		w.specE[k] = make([]complex128, ncf)
		w.specF[k] = make([]complex128, ncf)
		w.specT[k] = make([]complex128, ncf)
		w.specZ[k] = make([]complex128, ncf)
		w.specD[k] = make([]complex128, ncf)
	}
	w.np = make([]complex128, ncf)
	w.eG, w.dTs, w.dUs, w.dVs = alloc(), alloc(), alloc(), alloc()

	w.synthGrids = make([][]float64, 0, 3*nlev)
	w.synthGrids = append(w.synthGrids, w.zg...)
	w.synthGrids = append(w.synthGrids, w.dg...)
	w.synthGrids = append(w.synthGrids, w.tg...)
	w.synthSpecs = make([][]complex128, 3*nlev)
	w.anaGrids = make([][]float64, 0, 2*nlev)
	w.anaGrids = append(w.anaGrids, w.eG...)
	w.anaGrids = append(w.anaGrids, w.tSrc...)
	w.anaSpecs = make([][]complex128, 0, 2*nlev)
	w.anaSpecs = append(w.anaSpecs, w.specE...)
	w.anaSpecs = append(w.anaSpecs, w.nt...)

	w.ws0 = m.tr.NewWorkspace()
	w.wsMany = m.tr.NewWorkspaceMany(3 * nlev)
	w.ttil = make([][]complex128, nworkers)
	w.yv = make([][]complex128, nworkers)
	w.rhsRe = make([][]float64, nworkers)
	w.rhsIm = make([][]float64, nworkers)
	w.luX = make([][]float64, nworkers)
	w.qNew = make([][]float64, nworkers)
	w.colQ = make([][]float64, nworkers)
	w.cols = make([]*column, nworkers)
	w.rad = make([]*radScratch, nworkers)
	for i := 0; i < nworkers; i++ {
		w.ttil[i] = make([]complex128, nlev)
		w.yv[i] = make([]complex128, nlev)
		w.rhsRe[i] = make([]float64, nlev)
		w.rhsIm[i] = make([]float64, nlev)
		w.luX[i] = make([]float64, nlev)
		w.qNew[i] = make([]float64, ncell)
		w.colQ[i] = make([]float64, nlev)
		w.cols[i] = newColumn(nlev)
		w.rad[i] = newRadScratch(nlev)
	}
	w.deepCount = make([]int, nworkers)

	w.lats = make([]float64, m.cfg.NLat)
	for j := 0; j < m.cfg.NLat; j++ {
		w.lats[j] = math.Asin(m.geom.mu[j])
	}
	w.lnpsG = make([]float64, ncell)
	w.diagG = make([]float64, ncell)
	w.diagU = make([]float64, ncell)
	w.diagV = make([]float64, ncell)
	w.diagGrids = append(append(make([][]float64, 0, nlev+1), w.tg...), w.diagG)

	m.bindPhases(w)
	return w
}

// ensureWork returns the step workspace, building it on first use (and
// after SetPool invalidates it).
func (m *Model) ensureWork() *work {
	if m.phy.w == nil {
		m.phy.w = newWork(m)
	}
	return m.phy.w
}

// bindPhases creates the pooled phase closures once per work lifetime.
// Per-step inputs reach them through the staged fields of w, never through
// captured locals.
//
//foam:hotphases
func (m *Model) bindPhases(w *work) {
	nlat, nlon, nlev := m.cfg.NLat, m.cfg.NLon, m.cfg.NLev
	tr := m.tr
	vg := m.vg
	a := sphere.Radius
	ncf := m.cfg.Trunc.Count()

	// --- Column mass/velocity diagnostics.
	w.phColMass = func(_, k0, k1 int) {
		for k := k0; k < k1; k++ {
			for j := 0; j < nlat; j++ {
				inv := 1 / (a * m.geom.oneMu2[j])
				for i := 0; i < nlon; i++ {
					c := j*nlon + i
					w.vgq[k][c] = (w.U[k][c]*w.dqsdl[c] + w.V[k][c]*w.hqs[c]) * inv
					w.aCol[k][c] = w.dg[k][c] + w.vgq[k][c]
				}
			}
		}
	}

	// total integral of A, sigma-dot at half levels, cumulative to full
	// levels. Each cell's column is independent.
	w.phColumns = func(_, c0, c1 int) {
		for c := c0; c < c1; c++ {
			tot := 0.0
			for k := 0; k < nlev; k++ {
				tot += w.aCol[k][c] * vg.DSig[k]
			}
			cumHalf := 0.0
			w.sdot[0][c] = 0
			for k := 0; k < nlev; k++ {
				w.cum[k][c] = cumHalf + 0.5*w.aCol[k][c]*vg.DSig[k]
				cumHalf += w.aCol[k][c] * vg.DSig[k]
				w.sdot[k+1][c] = -cumHalf + vg.Half[k+1]*tot
			}
			w.sdot[nlev][c] = 0
			w.psSrc[c] = -tot
			for k := 0; k < nlev; k++ {
				w.omgp[k][c] = w.vgq[k][c] - w.cum[k][c]/vg.Full[k]
			}
		}
	}

	// --- Nonlinear terms. Writes go to level k only; vadv reads the
	// neighbouring levels, which are inputs of this phase.
	w.phNonlin = func(_, k0, k1 int) {
		for k := k0; k < k1; k++ {
			for j := 0; j < nlat; j++ {
				for i := 0; i < nlon; i++ {
					c := j*nlon + i
					vaU := m.vadv(w.U, k, c)
					vaV := m.vadv(w.V, k, c)
					vaT := m.vadv(w.tg, k, c)
					tdev := w.tg[k][c] - TRef
					za := w.zg[k][c] + m.fcor[c]
					w.nU[k][c] = za*w.V[k][c] - vaU - RDry*tdev/a*w.dqsdl[c]
					w.nV[k][c] = -za*w.U[k][c] - vaV - RDry*tdev/a*w.hqs[c]
					w.fluxA[k][c] = w.U[k][c] * tdev
					w.fluxB[k][c] = w.V[k][c] * tdev
					w.tSrc[k][c] = tdev*w.dg[k][c] - vaT + Kappa*w.tg[k][c]*w.omgp[k][c]
				}
			}
		}
	}

	// --- Explicit Laplacian source grid: E + Phi_s, per level.
	w.phGridE = func(_, k0, k1 int) {
		for k := k0; k < k1; k++ {
			eG := w.eG[k]
			for j := 0; j < nlat; j++ {
				inv := 1 / (2 * m.geom.oneMu2[j])
				for i := 0; i < nlon; i++ {
					c := j*nlon + i
					eG[c] = (w.U[k][c]*w.U[k][c]+w.V[k][c]*w.V[k][c])*inv + m.phiS[c]
				}
			}
		}
	}

	// --- Fold the analyzed energy and flux terms into the divergence and
	// temperature tendencies (the fused transforms ran just before).
	w.phSpecFix = func(_, k0, k1 int) {
		for k := k0; k < k1; k++ {
			scr := w.specE[k]
			tr.Laplacian(scr)
			for idx := range w.nd[k] {
				w.nd[k][idx] -= scr[idx]
			}
			scrF := w.specF[k]
			for idx := range w.nt[k] {
				w.nt[k][idx] -= scrF[idx]
			}
		}
	}

	// --- Semi-implicit add-backs (spectral, using the current divergence).
	w.phNpAdd = func(_, i0, i1 int) {
		for idx := i0; idx < i1; idx++ {
			var bD complex128
			for l := 0; l < nlev; l++ {
				bD += complex(vg.DSig[l], 0) * m.cur.div[l][idx]
			}
			w.np[idx] += bD
		}
	}
	w.phThermoAdd = func(_, k0, k1 int) {
		for k := k0; k < k1; k++ {
			arow := vg.ThermoRow(k)
			for idx := 0; idx < ncf; idx++ {
				var s complex128
				for l := 0; l < nlev; l++ {
					s += complex(arow[l], 0) * m.cur.div[l][idx]
				}
				w.nt[k][idx] += s
			}
		}
	}

	// --- Assemble and solve the implicit system per coefficient.
	// Per-coefficient vertical systems are independent; per-worker scratch,
	// and the LU solves read only precomputed factors.
	w.phSolve = func(worker, i0, i1 int) {
		dt, si, plus := w.dt, w.si, w.plus
		ttil := w.ttil[worker]
		yv := w.yv[worker]
		rhsRe := w.rhsRe[worker]
		rhsIm := w.rhsIm[worker]
		luX := w.luX[worker]
		a2 := a * a
		for idx := i0; idx < i1; idx++ {
			n := w.nOf[idx]
			cn := float64(n*(n+1)) / a2
			qtil := m.old.lnps[idx] + complex(dt, 0)*w.np[idx]
			for k := 0; k < nlev; k++ {
				ttil[k] = m.old.temp[k][idx] + complex(dt, 0)*w.nt[k][idx]
			}
			for k := 0; k < nlev; k++ {
				grow := vg.HydroRow(k)
				var s complex128
				for l := 0; l < nlev; l++ {
					s += complex(grow[l], 0) * ttil[l]
				}
				yv[k] = s + complex(RDry*TRef, 0)*qtil
			}
			for k := 0; k < nlev; k++ {
				rhs := m.old.div[k][idx] + complex(dt, 0)*w.nd[k][idx] + complex(dt*cn, 0)*yv[k]
				rhsRe[k] = real(rhs)
				rhsIm[k] = imag(rhs)
			}
			si.SolveInto(n, rhsRe, luX)
			si.SolveInto(n, rhsIm, luX)
			// rhsRe/Im now hold Dbar.
			var bD complex128
			for k := 0; k < nlev; k++ {
				dbar := complex(rhsRe[k], rhsIm[k])
				plus.div[k][idx] = 2*dbar - m.old.div[k][idx]
				bD += complex(vg.DSig[k], 0) * dbar
			}
			plus.lnps[idx] = 2*(qtil-complex(dt, 0)*bD) - m.old.lnps[idx]
			for k := 0; k < nlev; k++ {
				arow := vg.ThermoRow(k)
				var aD complex128
				for l := 0; l < nlev; l++ {
					aD += complex(arow[l], 0) * complex(rhsRe[l], rhsIm[l])
				}
				plus.temp[k][idx] = 2*(ttil[k]-complex(dt, 0)*aD) - m.old.temp[k][idx]
				plus.vort[k][idx] = m.old.vort[k][idx] + complex(2*dt, 0)*w.nz[k][idx]
			}
		}
	}

	// --- Hyperdiffusion: implicit del^4 damping, scale-selectively.
	w.phHyper = func(_, i0, i1 int) {
		dt, s := w.dt, w.plus
		k4 := m.cfg.Diff4
		a2 := a * a
		for idx := i0; idx < i1; idx++ {
			n := w.nOf[idx]
			cn := float64(n*(n+1)) / a2
			f := complex(1/(1+2*dt*k4*cn*cn), 0)
			for k := 0; k < nlev; k++ {
				s.vort[k][idx] *= f
				s.div[k][idx] *= f
				s.temp[k][idx] *= f
			}
		}
	}

	// --- Robert-Asselin filter on the center level (all three per-level
	// prognostic fields per level).
	w.phFilter = func(_, k0, k1 int) {
		al := complex(m.cfg.RobertAlpha, 0)
		plus := w.plus
		for k := k0; k < k1; k++ {
			o, c, n := m.old.vort[k], m.cur.vort[k], plus.vort[k]
			for i := range c {
				c[i] += al * (o[i] - 2*c[i] + n[i])
			}
			o, c, n = m.old.div[k], m.cur.div[k], plus.div[k]
			for i := range c {
				c[i] += al * (o[i] - 2*c[i] + n[i])
			}
			o, c, n = m.old.temp[k], m.cur.temp[k], plus.temp[k]
			for i := range c {
				c[i] += al * (o[i] - 2*c[i] + n[i])
			}
		}
	}

	m.bindSLPhases(w)
	m.bindPhysicsPhases(w)
}

// Step advances the model one time step: dynamics (semi-implicit leapfrog),
// semi-Lagrangian moisture transport, column physics, and the
// Robert-Asselin filter.
//
//foam:hotpath
func (m *Model) Step() {
	dt := m.cfg.Dt
	si := m.si
	if m.step == 0 {
		// Leapfrog startup: a half-interval step from old == cur.
		dt = m.cfg.Dt / 2
		si = m.siH
	}
	m.ensureWork()
	var t0 time.Time
	if m.costEnabled {
		//foam:allow nondeterminism wall-clock cost trace feeds the load-balance diagnostic, never the simulation state
		t0 = time.Now()
		m.lastCost.SemiImplicit = 0
		m.lastCost.Boundary = 0
		for j := range m.lastCost.PhysRows {
			m.lastCost.PhysRows[j] = 0
		}
	}
	plus := m.dynStep(dt, si)
	if m.costEnabled {
		//foam:allow nondeterminism wall-clock cost trace feeds the load-balance diagnostic, never the simulation state
		m.lastCost.DynRows = time.Since(t0).Seconds() - m.lastCost.SemiImplicit
		//foam:allow nondeterminism wall-clock cost trace feeds the load-balance diagnostic, never the simulation state
		t0 = time.Now()
	}
	if !m.cfg.Adiabatic {
		m.advectMoisture(plus)
		if m.costEnabled {
			//foam:allow nondeterminism wall-clock cost trace feeds the load-balance diagnostic, never the simulation state
			m.lastCost.Moisture = time.Since(t0).Seconds()
		}
		m.physicsStep(plus)
	}
	w := m.phy.w
	if m.cfg.Diff4 > 0 {
		m.applyHyperdiffusion(plus, dt)
	}

	// Robert-Asselin filter on the center level, then rotate time levels.
	if m.step > 0 {
		al := m.cfg.RobertAlpha
		w.plus = plus
		m.pool.Run(m.cfg.NLev, w.phFilter)
		w.plus = nil
		for i := range m.cur.lnps {
			m.cur.lnps[i] += complex(al, 0) * (m.old.lnps[i] - 2*m.cur.lnps[i] + plus.lnps[i])
		}
	}
	m.old, m.cur = m.cur, m.old // reuse old's storage for the new center
	m.cur.copyFrom(plus)
	m.releasePlus(plus)
	m.step++
	m.updateDiagnostics()
}

// plusPool caches one specState to avoid reallocating every step.
func (m *Model) takePlus() *specState {
	if m.phy.plusCache != nil {
		p := m.phy.plusCache
		m.phy.plusCache = nil
		return p
	}
	return newSpecState(m.cfg.NLev, m.cfg.Trunc.Count())
}

func (m *Model) releasePlus(p *specState) { m.phy.plusCache = p }

// dynStep performs the adiabatic semi-implicit leapfrog update and returns
// the provisional t+dt state.
func (m *Model) dynStep(dt float64, si *SemiImplicit) *specState {
	nlev := m.cfg.NLev
	ncell := m.grid.Size()
	tr := m.tr
	w := m.phy.w

	// Synthesize the current state on the grid with the fused batch entry
	// points: one pass over the Legendre tables for all winds, and one for
	// all the scalar fields of every level.
	tr.SynthesizeUVManyInto(w.U, w.V, m.cur.vort, m.cur.div, w.wsMany)
	for k := 0; k < nlev; k++ {
		w.synthSpecs[k] = m.cur.vort[k]
		w.synthSpecs[nlev+k] = m.cur.div[k]
		w.synthSpecs[2*nlev+k] = m.cur.temp[k]
	}
	tr.SynthesizeManyInto(w.synthGrids, w.synthSpecs, w.wsMany)
	tr.SynthesizeWithDerivsInto(w.qs, w.dqsdl, w.hqs, m.cur.lnps, w.ws0)

	m.pool.Run(nlev, w.phColMass)
	m.pool.Run(ncell, w.phColumns)
	m.pool.Run(nlev, w.phNonlin)
	m.pool.Run(nlev, w.phGridE)
	// Spectral tendencies, batched: the rotational/divergent pair shares
	// its Fourier rows, and the energy + temperature-source analyses ride
	// one table pass before phSpecFix folds them into nd/nt.
	tr.AnalyzeDivPairManyInto(w.nz, w.nd, w.nV, w.nU, 1, -1, 1, 1, w.wsMany)
	tr.AnalyzeManyInto(w.anaSpecs, w.anaGrids, w.wsMany)
	tr.AnalyzeDivFormManyInto(w.specF, w.fluxA, w.fluxB, 1, 1, w.wsMany)
	m.pool.Run(nlev, w.phSpecFix)
	tr.AnalyzeInto(w.np, w.psSrc, w.ws0)

	ncf := m.cfg.Trunc.Count()
	m.pool.Run(ncf, w.phNpAdd)
	m.pool.Run(nlev, w.phThermoAdd)

	var tSI time.Time
	if m.costEnabled {
		//foam:allow nondeterminism wall-clock cost trace feeds the load-balance diagnostic, never the simulation state
		tSI = time.Now()
	}
	plus := m.takePlus()
	w.dt, w.si, w.plus = dt, si, plus
	m.pool.Run(ncf, w.phSolve)
	w.si, w.plus = nil, nil
	if m.costEnabled {
		//foam:allow nondeterminism wall-clock cost trace feeds the load-balance diagnostic, never the simulation state
		m.lastCost.SemiImplicit = time.Since(tSI).Seconds()
	}
	return plus
}

// applyHyperdiffusion applies the implicit del^4 damping to s.
func (m *Model) applyHyperdiffusion(s *specState, dt float64) {
	w := m.ensureWork()
	w.dt, w.plus = dt, s
	m.pool.Run(len(w.nOf), w.phHyper)
	w.plus = nil
}

// vadv computes the centered vertical advection (sigma-dot dX/dsigma) at
// full level k for column c of a per-level field.
func (m *Model) vadv(x [][]float64, k, c int) float64 {
	vg := m.vg
	w := m.phy.w
	nlev := m.cfg.NLev
	var lower, upper float64
	if k > 0 {
		upper = w.sdot[k][c] * (x[k][c] - x[k-1][c]) / (vg.Full[k] - vg.Full[k-1])
	}
	if k < nlev-1 {
		lower = w.sdot[k+1][c] * (x[k+1][c] - x[k][c]) / (vg.Full[k+1] - vg.Full[k])
	}
	return 0.5 * (lower + upper)
}

// updateDiagnostics refreshes the per-step global diagnostics without
// allocating: grid scratch comes from the step workspace.
func (m *Model) updateDiagnostics() {
	w := m.ensureWork()
	nlev := m.cfg.NLev
	// Every level's temperature and ln(ps) in one fused pass; the dynamics'
	// grid temperatures are free scratch between steps.
	specs := w.synthSpecs[:nlev+1]
	copy(specs, m.cur.temp)
	specs[nlev] = m.cur.lnps
	m.tr.SynthesizeManyInto(w.diagGrids, specs, w.wsMany)
	for c := range w.diagG {
		w.diagG[c] = math.Exp(w.diagG[c])
	}
	m.diag.MeanPs = m.grid.AreaMean(w.diagG)
	tsum, wsum := 0.0, 0.0
	for k := 0; k < nlev; k++ {
		mean := m.grid.AreaMean(w.tg[k])
		tsum += mean * m.vg.DSig[k]
		wsum += m.vg.DSig[k]
	}
	m.diag.MeanT = tsum / wsum
	// Wind maximum at a mid-tropospheric level.
	k := nlev * 3 / 4
	m.tr.SynthesizeUVInto(w.diagU, w.diagV, m.cur.vort[k], m.cur.div[k], w.ws0)
	mx, ke := 0.0, 0.0
	for j := 0; j < m.cfg.NLat; j++ {
		inv := 1 / math.Sqrt(m.geom.oneMu2[j])
		for i := 0; i < m.cfg.NLon; i++ {
			c := j*m.cfg.NLon + i
			u := w.diagU[c] * inv
			v := w.diagV[c] * inv
			sp := math.Hypot(u, v)
			if sp > mx {
				mx = sp
			}
			ke += 0.5 * sp * sp
		}
	}
	m.diag.MaxWind = mx
	m.diag.KineticMean = ke / float64(m.grid.Size())
	m.diag.PrecipMean = m.phy.meanPrecip
	m.diag.EvapMean = m.phy.meanEvap
}
