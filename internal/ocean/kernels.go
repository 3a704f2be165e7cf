package ocean

import "math"

// Row-sweep kernels of the ocean step. Every kernel advances the interior
// rows [j0,j1) of its fields (1 <= j0, j1 <= NLat-1: the closed boundary
// rows are all land and are never written), walks contiguous row slices,
// and computes each face velocity, Laplacian and column factorization
// once. The per-cell floating-point operation order is the contract: it is
// pinned by TestOceanTrajectoryPinned, and DESIGN.md ("Ocean kernel
// structure") lists the rules that keep it (kept divisions, sum order,
// +0.0 seeds). Kernels are sequenced by the phase driver in shared.go.

// workScratch is one worker's row buffers; nothing in it outlives a kernel
// call.
type workScratch struct {
	// Face-velocity window of the current row: east faces, north faces of
	// the row to the south, north faces of the row itself.
	fe, fs, fn []float64
	div        []float64    // face divergence of the current row
	r          [8][]float64 // general row buffers, named by each kernel
	lev        []float64    // per-level limits (NLev entries)
	filt       *rowFilter
	mix        *mixScratch
}

func newWorkScratch(cfg Config) *workScratch {
	ws := &workScratch{
		fe: make([]float64, cfg.NLon), fs: make([]float64, cfg.NLon), fn: make([]float64, cfg.NLon),
		div: make([]float64, cfg.NLon), lev: make([]float64, cfg.NLev),
		filt: newRowFilter(cfg.NLon), mix: newMixScratch(cfg.NLev),
	}
	for i := range ws.r {
		ws.r[i] = make([]float64, cfg.NLon)
	}
	return ws
}

// rowOf returns row j of a 2-D field; kmtRow the active-level counts of row j.
func (m *Model) rowOf(f []float64, j int) []float64 {
	n := m.cfg.NLon
	return f[j*n : (j+1)*n : (j+1)*n]
}

func (m *Model) kmtRow(j int) []int {
	n := m.cfg.NLon
	return m.kmt[j*n : (j+1)*n : (j+1)*n]
}

// limit clamps x to [-lim, lim] for lim > 0. NaN and signed zeros pass
// through, exactly as math.Max(-lim, math.Min(lim, x)).
func limit(x, lim float64) float64 {
	if x > lim {
		return lim
	}
	if x < -lim {
		return -lim
	}
	return x
}

// oneSided is the masked centered difference over spacing d: centered where
// both neighbours are open, one-sided where one is land, zero where both
// are. One-sided surface-height gradients at coasts are essential: the sea
// surface piles up against a wall and the resulting pressure force is what
// blocks further inflow on an A-grid.
func oneSided(lo, c, hi float64, openLo, openHi bool, d float64) float64 {
	switch {
	case openHi && openLo:
		return (hi - lo) / (2 * d)
	case openHi:
		return (hi - c) / d
	case openLo:
		return (c - lo) / d
	}
	return 0
}

// eastFaces fills fe[i] with the advective velocity through the east face
// of cell i at level k: the mean of the two adjacent cell velocities,
// CFL-limited against the tracer step, zero when either side is land (no
// flow through coasts). The pair (iw, i) walks the periodic row without a
// modulo.
func eastFaces(fe, ur []float64, kr []int, k int, lim float64) {
	n := len(kr)
	for iw, i := n-1, 0; i < n; iw, i = i, i+1 {
		if k < kr[iw] && k < kr[i] {
			fe[iw] = limit(0.5*(ur[iw]+ur[i]), lim)
		} else {
			fe[iw] = 0
		}
	}
}

// northFaces is eastFaces for the faces between rows j and j+1.
func (m *Model) northFaces(fn, vk []float64, j, k int) {
	lim := 0.45 * math.Min(m.dy[j], m.dy[j+1]) / m.cfg.DtTracer
	vr, vn := m.rowOf(vk, j), m.rowOf(vk, j+1)
	kr, kn := m.kmtRow(j), m.kmtRow(j+1)
	for i := range fn {
		if k < kr[i] && k < kn[i] {
			fn[i] = limit(0.5*(vr[i]+vn[i]), lim)
		} else {
			fn[i] = 0
		}
	}
}

// faces advances the worker's face window to row j of level k: the previous
// row's north faces become the south faces, east and north faces are
// computed. A sweep primes the window with northFaces(ws.fn, vk, j0-1, k).
func (m *Model) faces(ws *workScratch, uk, vk []float64, j, k int) {
	ws.fs, ws.fn = ws.fn, ws.fs
	eastFaces(ws.fe, m.rowOf(uk, j), m.kmtRow(j), k, 0.45*m.dx[j]/m.cfg.DtTracer)
	m.northFaces(ws.fn, vk, j, k)
}

// divergence writes the horizontal divergence of row j built from the face
// window — the same faces the tracer fluxes use, so the diagnosed w closes
// the 3-D divergence cell by cell (a uniform tracer is then preserved
// exactly under advection). Land cells get +0 (all their faces are closed).
func (m *Model) divergence(out []float64, ws *workScratch, j int) {
	fe, fs, fn := ws.fe, ws.fs, ws.fn
	cN := 0.5 * (m.cosLat[j] + m.cosLat[j+1])
	cS := 0.5 * (m.cosLat[j-1] + m.cosLat[j])
	dx, dyc := m.dx[j], m.dy[j]*m.cosLat[j]
	for iw, i := len(out)-1, 0; i < len(out); iw, i = i, i+1 {
		d := (fe[i] - fe[iw]) / dx
		d += (fn[i]*cN - fs[i]*cS) / dyc
		out[i] = d
	}
}

// verticalVelocity integrates continuity upward from the bottom, level by
// level. w is positive upward on half levels (z increases downward), so the
// horizontal convergence of a layer leaves through its top:
// w_top = w_bottom - div*dz. w[0] (the surface face) carries the
// free-surface volume flux; w is zero at and below each column's floor.
func (m *Model) verticalVelocity(ws *workScratch, j0, j1 int) {
	for k := m.cfg.NLev - 1; k >= 0; k-- {
		uk, vk, dzk := m.u[k], m.v[k], m.dz[k]
		m.northFaces(ws.fn, vk, j0-1, k)
		for j := j0; j < j1; j++ {
			m.faces(ws, uk, vk, j, k)
			m.divergence(ws.div, ws, j)
			wt, wb := m.rowOf(m.wVel[k], j), m.rowOf(m.wVel[k+1], j)
			for i, kb := range m.kmtRow(j) {
				if k < kb {
					wt[i] = wb[i] - ws.div[i]*dzk
				} else {
					wt[i] = 0
				}
			}
		}
	}
}

// lapRows writes scale times the dimensionless five-point Laplacian (grid
// units, so damping rates are resolution-independent) of the centre row fc
// at level k, summing the open neighbours east, west, north, south; land
// cells get 0.
func lapRows(out, fs, fc, fn []float64, ks, kc, kn []int, k int, scale float64) {
	n := len(kc)
	for iw, i, ie := n-1, 0, 1; i < n; iw, i, ie = i, i+1, ie+1 {
		if ie == n {
			ie = 0
		}
		if k >= kc[i] {
			out[i] = 0
			continue
		}
		sum, cnt := 0.0, 0.0
		if k < kc[ie] {
			sum += fc[ie]
			cnt++
		}
		if k < kc[iw] {
			sum += fc[iw]
			cnt++
		}
		if k < kn[i] {
			sum += fn[i]
			cnt++
		}
		if k < ks[i] {
			sum += fs[i]
			cnt++
		}
		out[i] = scale * (sum - cnt*fc[i])
	}
}

// lapRow is lapRows on row j of fld; the closed boundary rows are all land.
func (m *Model) lapRow(out, fld []float64, j, k int, scale float64) {
	if j == 0 || j == m.cfg.NLat-1 {
		clear(out)
		return
	}
	lapRows(out, m.rowOf(fld, j-1), m.rowOf(fld, j), m.rowOf(fld, j+1),
		m.kmtRow(j-1), m.kmtRow(j), m.kmtRow(j+1), k, scale)
}

// slowMomentum assembles the tendencies evaluated once per tracer step and
// carried unchanged through the subcycles (the paper's "yet a longer step
// ... for diffusive and advective processes"): donor-cell advection of
// momentum, Laplacian viscosity, biharmonic friction, wind stress and
// bottom drag. The advecting velocities are CFL-limited against the long
// tracer step, which the held-fixed tendencies must satisfy. The Laplacians
// of u and v live in a rolling three-row window: the centre row feeds the
// viscosity, all three the second Laplacian of the biharmonic term.
func (m *Model) slowMomentum(ws *workScratch, f *Forcing, j0, j1 int) {
	nlon, nlev, dt := m.cfg.NLon, m.cfg.NLev, m.cfg.DtTracer
	advect, biharm, viscous := !m.cfg.NoMomentumAdvection, !m.cfg.NoBiharmonic, m.cfg.AM > 0
	// del^4 damping, row-scaled so the two-grid-interval mode decays by
	// BiharmCoef per tracer step.
	coef := m.cfg.BiharmCoef / (16 * dt)
	laps := viscous || biharm
	lu, lv, l2u, l2v := ws.r[0:3], ws.r[3:6], ws.r[6], ws.r[7]
	for k := 0; k < nlev; k++ {
		uk, vk := m.u[k], m.v[k]
		var wMaxT, hzT, wMaxB, hzB float64 // vertical donor-cell limits of the two faces
		if k > 0 {
			wMaxT, hzT = 0.45*math.Min(m.dz[k-1], m.dz[k])/dt, 0.5*(m.dz[k-1]+m.dz[k])
		}
		if k+1 < nlev {
			wMaxB, hzB = 0.45*math.Min(m.dz[k], m.dz[k+1])/dt, 0.5*(m.dz[k]+m.dz[k+1])
		}
		if laps {
			for j := j0 - 1; j <= j0; j++ {
				m.lapRow(lu[j%3], uk, j, k, 1)
				m.lapRow(lv[j%3], vk, j, k, 1)
			}
		}
		for j := j0; j < j1; j++ {
			ks, kr, kn := m.kmtRow(j-1), m.kmtRow(j), m.kmtRow(j+1)
			if laps {
				m.lapRow(lu[(j+1)%3], uk, j+1, k, 1)
				m.lapRow(lv[(j+1)%3], vk, j+1, k, 1)
			}
			luc, lvc := lu[j%3], lv[j%3]
			if biharm {
				lapRows(l2u, lu[(j-1)%3], luc, lu[(j+1)%3], ks, kr, kn, k, 1)
				lapRows(l2v, lv[(j-1)%3], lvc, lv[(j+1)%3], ks, kr, kn, k, 1)
			}
			dx, dy := m.dx[j], m.dy[j]
			uMax, vMax := 0.45*dx/dt, 0.45*dy/dt
			// Laplacian viscosity, capped by the explicit stability bound
			// on converging rows.
			var visc float64
			if viscous {
				am := math.Min(m.cfg.AM, 0.2/(dt*(1/(dx*dx)+1/(dy*dy))))
				visc = am / (dx * dy)
			}
			us, ur, un := m.rowOf(uk, j-1), m.rowOf(uk, j), m.rowOf(uk, j+1)
			vs, vr, vn := m.rowOf(vk, j-1), m.rowOf(vk, j), m.rowOf(vk, j+1)
			su, sv := m.rowOf(m.slowU[k], j), m.rowOf(m.slowV[k], j)
			wt, wb := m.rowOf(m.wVel[k], j), m.rowOf(m.wVel[k+1], j)
			var ua, va, ub, vb []float64 // the levels above and below
			if k > 0 {
				ua, va = m.rowOf(m.u[k-1], j), m.rowOf(m.v[k-1], j)
			}
			if k+1 < nlev {
				ub, vb = m.rowOf(m.u[k+1], j), m.rowOf(m.v[k+1], j)
			}
			for iw, i, ie := nlon-1, 0, 1; i < nlon; iw, i, ie = i, i+1, ie+1 {
				if ie == nlon {
					ie = 0
				}
				kb := kr[i]
				su[i], sv[i] = 0, 0
				if k >= kb {
					continue
				}
				if advect {
					u, v := limit(ur[i], uMax), limit(vr[i], vMax)
					hu, hv := 0.0, 0.0 // horizontal upstream advection of u and v
					if u > 0 {
						if k < kr[iw] {
							hu += u * (ur[i] - ur[iw]) / dx
							hv += u * (vr[i] - vr[iw]) / dx
						}
					} else if k < kr[ie] {
						hu += u * (ur[ie] - ur[i]) / dx
						hv += u * (vr[ie] - vr[i]) / dx
					}
					if v > 0 {
						if k < ks[i] {
							hu += v * (ur[i] - us[i]) / dy
							hv += v * (vr[i] - vs[i]) / dy
						}
					} else if k < kn[i] {
						hu += v * (un[i] - ur[i]) / dy
						hv += v * (vn[i] - vr[i]) / dy
					}
					zu, zv := 0.0, 0.0 // vertical upstream advection
					if k > 0 {
						// Downward flow through the top face brings upper water.
						if w := max(wt[i], -wMaxT); w < 0 {
							zu += -w * (ua[i] - ur[i]) / hzT
							zv += -w * (va[i] - vr[i]) / hzT
						}
					}
					if k+1 < kb {
						// Upward flow through the bottom face brings lower water.
						if w := min(wb[i], wMaxB); w > 0 {
							zu += -w * (ur[i] - ub[i]) / hzB
							zv += -w * (vr[i] - vb[i]) / hzB
						}
					}
					su[i], sv[i] = -hu-zu, -hv-zv
				}
				if viscous {
					su[i] += visc * luc[i]
					sv[i] += visc * lvc[i]
				}
				if k == 0 && f != nil { // wind stress into the top layer
					c := j*nlon + i
					su[i] += f.TauX[c] / (Rho0 * m.dz[0])
					sv[i] += f.TauY[c] / (Rho0 * m.dz[0])
				}
				if k == kb-1 {
					// Quadratic bottom drag. The coefficient is larger than
					// the canonical 1e-3: it also stands in for the
					// topographic form stress that balances zonally
					// unbounded (ACC-like) channel flows, which a coarse
					// A-grid model cannot represent explicitly.
					cdz := 2.5e-3 * math.Hypot(ur[i], vr[i]) / m.dz[k]
					su[i] -= cdz * ur[i]
					sv[i] -= cdz * vr[i]
				}
				if biharm {
					su[i] -= coef * l2u[i]
					sv[i] -= coef * l2v[i]
				}
			}
		}
	}
}

// eastFlux fills x[i] with one tracer's donor-cell plus down-gradient flux
// through the east face of cell i of row j (level k), already divided by
// dx; northFlux fills gn[i] with the flux through the north face times the
// face's metric convergence factor. Both read the face window. Closed faces
// carry +0, which adds nothing to the +0-seeded tendency sums.
func (m *Model) eastFlux(x, fe, q []float64, j, k int) {
	qr, kr := m.rowOf(q, j), m.kmtRow(j)
	ah, dx := m.cfg.AH, m.dx[j]
	invV := 1 / dx
	for iw, i := len(x)-1, 0; i < len(x); iw, i = i, i+1 {
		if k >= kr[iw] || k >= kr[i] {
			x[iw] = 0
			continue
		}
		var flux float64
		if uf := fe[iw]; uf > 0 {
			flux = uf * qr[iw]
		} else {
			flux = uf * qr[i]
		}
		flux -= ah * (qr[i] - qr[iw]) / dx
		x[iw] = flux * invV
	}
}

func (m *Model) northFlux(gn, fn, q []float64, j, k int) {
	qr, qn := m.rowOf(q, j), m.rowOf(q, j+1)
	kr, kn := m.kmtRow(j), m.kmtRow(j+1)
	ah := m.cfg.AH
	cosF := 0.5 * (m.cosLat[j] + m.cosLat[j+1])
	dyF := 0.5 * (m.dy[j] + m.dy[j+1])
	for i := range gn {
		if k >= kr[i] || k >= kn[i] {
			gn[i] = 0
			continue
		}
		var flux float64
		if vf := fn[i]; vf > 0 {
			flux = vf * qr[i]
		} else {
			flux = vf * qn[i]
		}
		flux -= ah * (qn[i] - qr[i]) / dyF
		gn[i] = flux * cosF
	}
}

// tracerTend stores, for rows [j0,j1) of level k, the horizontal tendency
// of T in m.scr and of S in m.scr2: donor-cell face fluxes plus
// down-gradient diffusion in flux form, with the advective-form
// compensation q times the face divergence so that a uniform tracer is
// preserved exactly even though the vertical transport is handled
// separately in the subcycles. Interior face fluxes cancel pairwise, so
// conservation is exact up to the (small) compensation term. Both tracers
// share one face window and one divergence; each cell sums its faces west,
// east, south, north. tracerApply adds the tendencies after a barrier,
// because the fluxes read tracer values on neighbour rows.
func (m *Model) tracerTend(ws *workScratch, k, j0, j1 int) {
	uk, vk := m.u[k], m.v[k]
	type fluxRows struct {
		q, out    []float64
		x, gs, gn []float64
	}
	tr := [2]fluxRows{
		{q: m.t[k], out: m.scr, x: ws.r[0], gs: ws.r[1], gn: ws.r[2]},
		{q: m.s[k], out: m.scr2, x: ws.r[3], gs: ws.r[4], gn: ws.r[5]},
	}
	m.northFaces(ws.fn, vk, j0-1, k)
	for t := range tr {
		m.northFlux(tr[t].gn, ws.fn, tr[t].q, j0-1, k)
	}
	for j := j0; j < j1; j++ {
		m.faces(ws, uk, vk, j, k)
		m.divergence(ws.div, ws, j)
		kr, dyc := m.kmtRow(j), m.dy[j]*m.cosLat[j]
		for t := range tr {
			f := &tr[t]
			f.gs, f.gn = f.gn, f.gs
			m.eastFlux(f.x, ws.fe, f.q, j, k)
			m.northFlux(f.gn, ws.fn, f.q, j, k)
			qr, out, x, gs, gn := m.rowOf(f.q, j), m.rowOf(f.out, j), f.x, f.gs, f.gn
			for iw, i := len(kr)-1, 0; i < len(kr); iw, i = i, i+1 {
				if k < kr[i] {
					tend := 0.0
					tend += x[iw]
					tend -= x[i]
					tend += gs[i] / dyc
					tend -= gn[i] / dyc
					out[i] = tend + qr[i]*ws.div[i]
				}
			}
		}
	}
}

// tracerApply adds the stored level-k tendencies over the tracer step.
func (m *Model) tracerApply(k, j0, j1 int, dt float64) {
	for j := j0; j < j1; j++ {
		tr, sr := m.rowOf(m.t[k], j), m.rowOf(m.s[k], j)
		dT, dS := m.rowOf(m.scr, j), m.rowOf(m.scr2, j)
		for i, kb := range m.kmtRow(j) {
			if k < kb {
				tr[i] += dt * dT[i]
				sr[i] += dt * dS[i]
			}
		}
	}
}

// verticalTracerStep transports T and S vertically by the current w with
// donor-cell face fluxes and the advective-form compensation. It runs at
// the short internal step inside the subcycles, because w*(dT/dz) against
// the stratification is the restoring force of internal gravity waves (the
// "fastest parts of the internal dynamics" in the paper's description).
// The CFL-limited face velocity is computed once for both tracers; the
// flux through each half level is carried from the layer above to the
// layer below in rolling rows (all fluxes use pre-update values).
func (m *Model) verticalTracerStep(ws *workScratch, j0, j1 int, dt float64) {
	nlev := m.cfg.NLev
	wMax := ws.lev
	wMax[0] = 0.45 * m.dz[0] / dt
	for k := 1; k < nlev; k++ {
		wMax[k] = 0.45 * math.Min(m.dz[k-1], m.dz[k]) / dt
	}
	topT, botT, topS, botS := ws.r[0], ws.r[1], ws.r[2], ws.r[3]
	for j := j0; j < j1; j++ {
		kr := m.kmtRow(j)
		// The surface face carries the free-surface volume flux.
		w0, t0, s0 := m.rowOf(m.wVel[0], j), m.rowOf(m.t[0], j), m.rowOf(m.s[0], j)
		for i := range kr {
			w := limit(w0[i], wMax[0])
			topT[i], topS[i] = w*t0[i], w*s0[i]
		}
		for k := 0; k < nlev; k++ {
			dzk := m.dz[k]
			wt, wb := m.rowOf(m.wVel[k], j), m.rowOf(m.wVel[k+1], j)
			tk, sk := m.rowOf(m.t[k], j), m.rowOf(m.s[k], j)
			tn, sn := tk, sk // the level below; never read at the floor
			if k+1 < nlev {
				tn, sn = m.rowOf(m.t[k+1], j), m.rowOf(m.s[k+1], j)
			}
			for i, kb := range kr {
				if k >= kb {
					continue
				}
				var fT, fS, wBot float64
				if k+1 < kb {
					wBot = wb[i]
					if w := limit(wBot, wMax[k+1]); w > 0 {
						fT, fS = w*tn[i], w*sn[i]
					} else {
						fT, fS = w*tk[i], w*sk[i]
					}
				}
				// Flux divergence plus advective-form compensation so a
				// uniform tracer stays exactly uniform.
				tk[i] += dt * ((fT-topT[i])/dzk + tk[i]*(wt[i]-wBot)/dzk)
				sk[i] += dt * ((fS-topS[i])/dzk + sk[i]*(wt[i]-wBot)/dzk)
				botT[i], botS[i] = fT, fS
			}
			topT, botT, topS, botS = botT, topT, botS, topS
		}
	}
}

// surfaceTracerForcing applies heat and freshwater forcing to the top layer.
func (m *Model) surfaceTracerForcing(f *Forcing, j0, j1 int, dt float64) {
	if f == nil {
		return
	}
	nlon := m.cfg.NLon
	t0, s0 := m.t[0], m.s[0]
	for c := j0 * nlon; c < j1*nlon; c++ {
		if m.kmt[c] == 0 {
			continue
		}
		t0[c] += f.Heat[c] * dt / (Rho0 * CpOcean * m.dz[0])
		// Virtual salt flux plus a volume source on the free surface
		// (eta carries the s^2-amplified scaling of the slowed
		// barotropic formulation).
		fwMS := f.FreshWater[c] / 1000.0 // m/s of fresh water
		s0[c] -= s0[c] * fwMS * dt / m.dz[0]
		m.eta[c] += fwMS * dt * m.cfg.Slowdown * m.cfg.Slowdown
	}
}

// density evaluates the (simplified UNESCO-like) equation of state as a
// density anomaly about Rho0.
func (m *Model) density(j0, j1 int) {
	for k := 0; k < m.cfg.NLev; k++ {
		for j := j0; j < j1; j++ {
			tk, sk, rk := m.rowOf(m.t[k], j), m.rowOf(m.s[k], j), m.rowOf(m.rho[k], j)
			for i, kb := range m.kmtRow(j) {
				if k >= kb {
					rk[i] = 0
					continue
				}
				td := tk[i] - 10
				rk[i] = Rho0 * (EosAlpha*td + EosAlpha2*td*td + EosBeta*(sk[i]-35))
			}
		}
	}
}

// freezeClamp enforces the -1.92 C clamp of the paper and diagnoses the
// water-equivalent freezing flux handed to the coupler's sea ice.
func (m *Model) freezeClamp(j0, j1 int, dt float64) {
	nlon := m.cfg.NLon
	const lFusion = 3.34e5
	t0, s0 := m.t[0], m.s[0]
	for c := j0 * nlon; c < j1*nlon; c++ {
		m.iceFlux[c] = 0
		kb := m.kmt[c]
		if kb == 0 {
			continue
		}
		if t0[c] < TFreeze {
			deficit := (TFreeze - t0[c]) * Rho0 * CpOcean * m.dz[0] // J/m^2
			t0[c] = TFreeze
			m.iceFlux[c] = deficit / lFusion / dt
			// Brine rejection: freezing removes fresh water.
			s0[c] += s0[c] * (m.iceFlux[c] / 1000.0) * dt / m.dz[0]
		}
		for k := 1; k < kb; k++ {
			if m.t[k][c] < TFreeze {
				m.t[k][c] = TFreeze
			}
		}
	}
}

// baroclinicPressure integrates the hydrostatic relation downward; pbc is
// pressure anomaly divided by Rho0 (m^2/s^2) at the layer centres, so each
// layer contributes half its weight above its centre and half below.
func (m *Model) baroclinicPressure(ws *workScratch, j0, j1 int) {
	p := ws.r[0]
	for j := j0; j < j1; j++ {
		kr := m.kmtRow(j)
		clear(p)
		for k := 0; k < m.cfg.NLev; k++ {
			rk, pk, dzk := m.rowOf(m.rho[k], j), m.rowOf(m.pbc[k], j), m.dz[k]
			for i, kb := range kr {
				if k < kb {
					half := GravOc * rk[i] / Rho0 * dzk * 0.5
					p[i] += half
					pk[i] = p[i]
					p[i] += half
				} else {
					pk[i] = p[i]
				}
			}
		}
	}
}

// internalStep advances the 3-D velocities with the fast internal terms:
// Coriolis, baroclinic pressure gradients and the stored slow tendencies.
// The pressure gradient is centered only where both neighbours are wet at
// level k and zero otherwise: one-sided differences of pressure at coasts
// and topography steps exert non-reciprocal forces that drive spurious
// along-slope jets, and zeroing the blocked direction is the standard
// A-grid remedy (consistent with no-normal-flow). With the split free
// surface the same sweep also forms the forcing of the barotropic system —
// the depth mean of the pressure-gradient force and of the slow tendencies
// (the wind stress reaches the mean through slowU's top layer) — into
// btFx/btFy, where every barotropic substep of this internal step reads it.
func (m *Model) internalStep(ws *workScratch, j0, j1 int, dt float64) {
	nlon, nlev, split := m.cfg.NLon, m.cfg.NLev, m.cfg.Split
	geff := GravOc / (m.cfg.Slowdown * m.cfg.Slowdown)
	pgx, pgy, sux, svy, ex, ey := ws.r[0], ws.r[1], ws.r[2], ws.r[3], ws.r[4], ws.r[5]
	for j := j0; j < j1; j++ {
		// Trapezoidal (Crank-Nicolson) Coriolis: neutral for inertial
		// oscillations and stable in combination with forward-backward
		// gravity (rotating the already-incremented velocity is weakly
		// unstable — see the stability note in DESIGN.md).
		al := 0.5 * m.fcor[j] * dt
		den := 1 / (1 + al*al)
		dx, dy := m.dx[j], m.dy[j]
		ks, kr, kn := m.kmtRow(j-1), m.kmtRow(j), m.kmtRow(j+1)
		if split {
			clear(pgx)
			clear(pgy)
			clear(sux)
			clear(svy)
		} else {
			// The unsplit baseline feels the (unslowed) surface gradient here.
			es, ec, en := m.rowOf(m.eta, j-1), m.rowOf(m.eta, j), m.rowOf(m.eta, j+1)
			for iw, i, ie := nlon-1, 0, 1; i < nlon; iw, i, ie = i, i+1, ie+1 {
				if ie == nlon {
					ie = 0
				}
				ex[i] = geff * oneSided(ec[iw], ec[i], ec[ie], kr[iw] > 0, kr[ie] > 0, dx)
				ey[i] = geff * oneSided(es[i], ec[i], en[i], ks[i] > 0, kn[i] > 0, dy)
			}
		}
		for k := 0; k < nlev; k++ {
			ps, pc, pn := m.rowOf(m.pbc[k], j-1), m.rowOf(m.pbc[k], j), m.rowOf(m.pbc[k], j+1)
			uk, vk := m.rowOf(m.u[k], j), m.rowOf(m.v[k], j)
			su, sv := m.rowOf(m.slowU[k], j), m.rowOf(m.slowV[k], j)
			for iw, i, ie := nlon-1, 0, 1; i < nlon; iw, i, ie = i, i+1, ie+1 {
				if ie == nlon {
					ie = 0
				}
				kb := kr[i]
				if k >= kb {
					continue
				}
				gx, gy := 0.0, 0.0
				if k < kr[ie] && k < kr[iw] {
					gx = (pc[ie] - pc[iw]) / (2 * dx)
				}
				if k < kn[i] && k < ks[i] {
					gy = (pn[i] - ps[i]) / (2 * dy)
				}
				du := -gx + su[i]
				dv := -gy + sv[i]
				if split {
					w := m.layerWgt[kb*nlev+k]
					pgx[i] += gx * w
					pgy[i] += gy * w
					sux[i] += su[i] * w
					svy[i] += sv[i] * w
				} else {
					du -= ex[i]
					dv -= ey[i]
				}
				ru := uk[i] + al*vk[i] + du*dt
				rv := vk[i] - al*uk[i] + dv*dt
				uk[i] = (ru + al*rv) * den
				vk[i] = (rv - al*ru) * den
			}
		}
		if split {
			fx, fy := m.rowOf(m.btFx, j), m.rowOf(m.btFy, j)
			for i := range fx {
				fx[i] = -pgx[i] + sux[i]
				fy[i] = -pgy[i] + svy[i]
			}
		}
	}
}

// The split 2-D system (eta, ubt, vbt) follows Tobis's slowed barotropic
// dynamics: gravity is reduced by s^2 in the barotropic momentum equation,
// so the external wave travels s times slower while the continuity equation
// stays physical. The steady momentum balance is unchanged — eta simply
// carries an s^2-amplified amplitude (g_eff*eta is the physical surface
// pressure), and because continuity is untouched that amplified eta builds
// at the full physical rate: coastal blocking and geostrophic setup happen
// on the fast timescale, which is why the paper can claim the slowing
// "make[s] little difference to the internal motions". Diagnostics report
// eta/s^2, the physically scaled surface height. One substep is momentum
// first (forward: btDivergence, btMomentum), then continuity with the new
// velocities (backward: btContinuity), then btSmooth on each field.

// btDivergence stores the barotropic velocity divergence in m.scr2 for the
// divergence damping of btMomentum: transient gravity waves in the slowed
// system carry s-times amplified divergent velocities for a given eta; a
// diffusion acting on the velocity divergence removes them while leaving
// the geostrophic (non-divergent) circulation untouched.
func (m *Model) btDivergence(ws *workScratch, j0, j1 int) {
	m.northFaces(ws.fn, m.vbt, j0-1, 0)
	for j := j0; j < j1; j++ {
		m.faces(ws, m.ubt, m.vbt, j, 0)
		m.divergence(m.rowOf(m.scr2, j), ws, j)
	}
}

// btMomentum advances (ubt, vbt) with the forward part of the
// forward-backward scheme: slowed surface-pressure gradient, divergence
// damping, the depth-mean forcing stored by internalStep, trapezoidal
// Coriolis and a weak Rayleigh damping standing in for unresolved shelf
// drag.
func (m *Model) btMomentum(j0, j1 int, dt float64) {
	nlon := m.cfg.NLon
	geff := GravOc / (m.cfg.Slowdown * m.cfg.Slowdown)
	damp := 1 - dt*3e-7
	for j := j0; j < j1; j++ {
		al := 0.5 * m.fcor[j] * dt
		den := 1 / (1 + al*al)
		dx, dy := m.dx[j], m.dy[j]
		nuDiv := 0.15 / (dt * (1/(dx*dx) + 1/(dy*dy)))
		ks, kr, kn := m.kmtRow(j-1), m.kmtRow(j), m.kmtRow(j+1)
		es, ec, en := m.rowOf(m.eta, j-1), m.rowOf(m.eta, j), m.rowOf(m.eta, j+1)
		ds, dc, dn := m.rowOf(m.scr2, j-1), m.rowOf(m.scr2, j), m.rowOf(m.scr2, j+1)
		ub, vb, fx, fy := m.rowOf(m.ubt, j), m.rowOf(m.vbt, j), m.rowOf(m.btFx, j), m.rowOf(m.btFy, j)
		for iw, i, ie := nlon-1, 0, 1; i < nlon; iw, i, ie = i, i+1, ie+1 {
			if ie == nlon {
				ie = 0
			}
			if kr[i] == 0 {
				ub[i], vb[i] = 0, 0
				continue
			}
			ow, oe, os, on := kr[iw] > 0, kr[ie] > 0, ks[i] > 0, kn[i] > 0
			du := -geff * oneSided(ec[iw], ec[i], ec[ie], ow, oe, dx)
			dv := -geff * oneSided(es[i], ec[i], en[i], os, on, dy)
			du += nuDiv * oneSided(dc[iw], dc[i], dc[ie], ow, oe, dx)
			dv += nuDiv * oneSided(ds[i], dc[i], dn[i], os, on, dy)
			du += fx[i]
			dv += fy[i]
			ru := ub[i] + al*vb[i] + du*dt
			rv := vb[i] - al*ub[i] + dv*dt
			ub[i] = (ru + al*rv) * den * damp
			vb[i] = (rv - al*ru) * den * damp
		}
	}
}

// btContinuity applies the backward continuity step d(eta)/dt = -div(H u_bt)
// from face transports (no flow through coasts), matching the face
// discretization used everywhere else. The north-face transports roll from
// row to row like the face-velocity window.
func (m *Model) btContinuity(ws *workScratch, j0, j1 int, dt float64) {
	hu, te, ts, tn := ws.r[0], ws.r[1], ws.r[2], ws.r[3]
	// northTransport fills the depth-weighted flow through the north faces
	// of row j, times the face's metric convergence factor.
	northTransport := func(out []float64, j int) {
		kr, kn := m.kmtRow(j), m.kmtRow(j+1)
		vr, vn := m.rowOf(m.vbt, j), m.rowOf(m.vbt, j+1)
		cs := m.cosLat[j] + m.cosLat[j+1]
		for i := range out {
			out[i] = 0
			if kr[i] > 0 && kn[i] > 0 {
				out[i] = 0.5 * (m.zh[kr[i]]*vr[i] + m.zh[kn[i]]*vn[i]) * 0.5 * cs
			}
		}
	}
	northTransport(tn, j0-1)
	for j := j0; j < j1; j++ {
		ts, tn = tn, ts
		northTransport(tn, j)
		kr, ur, er := m.kmtRow(j), m.rowOf(m.ubt, j), m.rowOf(m.eta, j)
		for i, kb := range kr {
			hu[i] = m.zh[kb] * ur[i]
		}
		dx, dyc := m.dx[j], m.dy[j]*m.cosLat[j]
		for iw, i := len(kr)-1, 0; i < len(kr); iw, i = i, i+1 {
			te[iw] = 0
			if kr[iw] > 0 && kr[i] > 0 {
				te[iw] = 0.5 * (hu[iw] + hu[i])
			}
		}
		for iw, i := len(kr)-1, 0; i < len(kr); iw, i = i, i+1 {
			if kr[i] > 0 {
				div := (te[i] - te[iw]) / dx
				div += (tn[i] - ts[i]) / dyc
				er[i] -= dt * div
			}
		}
	}
}

// smoothIncrement stores in inc the increment of a grid-Laplacian smoothing
// of the level-k field fld. The unstaggered grid supports two-grid-interval
// null modes that the centered gradients cannot feel. In the barotropic
// system (eta, ubt, vbt) a light smoothing removes it (the role the paper
// gives its del^4 dissipation). In the 3-D velocity the mode lies in the
// null space of both the centered pressure gradient and the face
// divergence, so no physical term restrains it; without the smoothing (or
// an equivalently strong del^4) the nonlinear terms pump it at density
// fronts. The damping is strongly scale-selective: ~8*scale per
// application at 2*dx, O(k^2 dx^2) elsewhere. The increment reads neighbour
// rows that smoothApply overwrites, so a barrier separates the two.
func (m *Model) smoothIncrement(inc, fld []float64, k int, scale float64, j0, j1 int) {
	for j := j0; j < j1; j++ {
		m.lapRow(m.rowOf(inc, j), fld, j, k, scale)
	}
}

// smoothApply adds the increment stored in inc to the level-k wet cells.
func (m *Model) smoothApply(fld, inc []float64, k, j0, j1 int) {
	for j := j0; j < j1; j++ {
		fr, ir := m.rowOf(fld, j), m.rowOf(inc, j)
		for i, kb := range m.kmtRow(j) {
			if k < kb {
				fr[i] += ir[i]
			}
		}
	}
}

// coupleBarotropic replaces the depth mean of the 3-D velocity with the
// barotropic solution, the split-coupling of Killworth et al. that the
// paper cites.
func (m *Model) coupleBarotropic(ws *workScratch, j0, j1 int) {
	mu, mv := ws.r[0], ws.r[1]
	for j := j0; j < j1; j++ {
		kr := m.kmtRow(j)
		clear(mu)
		clear(mv)
		for k := 0; k < m.cfg.NLev; k++ {
			uk, vk, dzk := m.rowOf(m.u[k], j), m.rowOf(m.v[k], j), m.dz[k]
			for i, kb := range kr {
				if k < kb {
					mu[i] += uk[i] * dzk
					mv[i] += vk[i] * dzk
				}
			}
		}
		ub, vb := m.rowOf(m.ubt, j), m.rowOf(m.vbt, j)
		for i, kb := range kr {
			if kb > 0 {
				mu[i] = ub[i] - mu[i]/m.zh[kb]
				mv[i] = vb[i] - mv[i]/m.zh[kb]
			}
		}
		for k := 0; k < m.cfg.NLev; k++ {
			uk, vk := m.rowOf(m.u[k], j), m.rowOf(m.v[k], j)
			for i, kb := range kr {
				if k < kb {
					uk[i] += mu[i]
					vk[i] += mv[i]
				}
			}
		}
	}
}

// unsplitFreeSurface is the baseline path: the free surface evolves from
// the full 3-D transport divergence (accumulated top-down in m.scr) and the
// velocities already felt the surface gradient in internalStep.
func (m *Model) unsplitFreeSurface(ws *workScratch, j0, j1 int, dt float64) {
	for j := j0; j < j1; j++ {
		clear(m.rowOf(m.scr, j))
	}
	for k := 0; k < m.cfg.NLev; k++ {
		uk, vk, dzk := m.u[k], m.v[k], m.dz[k]
		m.northFaces(ws.fn, vk, j0-1, k)
		for j := j0; j < j1; j++ {
			m.faces(ws, uk, vk, j, k)
			m.divergence(ws.div, ws, j)
			acc := m.rowOf(m.scr, j)
			for i, kb := range m.kmtRow(j) {
				if k < kb {
					acc[i] += ws.div[i] * dzk
				}
			}
		}
	}
	for j := j0; j < j1; j++ {
		er, acc := m.rowOf(m.eta, j), m.rowOf(m.scr, j)
		for i, kb := range m.kmtRow(j) {
			if kb > 0 {
				er[i] -= dt * acc[i]
			}
		}
	}
}

// clampVelocities is a coarse-resolution safety limiter (3 m/s far exceeds
// any resolved current).
func (m *Model) clampVelocities(j0, j1 int) {
	const vmax = 3.0
	nlon := m.cfg.NLon
	for k := 0; k < m.cfg.NLev; k++ {
		uk, vk := m.u[k], m.v[k]
		for c := j0 * nlon; c < j1*nlon; c++ {
			// |u|+|v| bounds the speed from above: skip the Hypot when it
			// cannot reach the limit.
			if math.Abs(uk[c])+math.Abs(vk[c]) < 0.99*vmax {
				continue
			}
			if sp := math.Hypot(uk[c], vk[c]); sp > vmax {
				f := vmax / sp
				uk[c] *= f
				vk[c] *= f
			}
		}
	}
}
