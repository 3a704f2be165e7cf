package ocean

// The step driver. One tracer step is one fixed sequence of phases; each
// phase runs a group of row kernels over a partition of the interior rows
// on the model's *pool.Pool. A nil pool executes a phase inline over all
// rows, a worker pool splits it into row blocks, and both walk the same
// sequence, so the drivers cannot drift. The decomposition rules that make
// the result bit-identical for any worker count:
//
//   - Each row is written by exactly one worker, with the same per-cell
//     operation order whatever the blocking. pool.Run's barrier separates
//     phases: a kernel that reads neighbour rows of a field starts only
//     after the phase that wrote that field has finished everywhere.
//   - Kernels grouped into one phase only read neighbour rows of fields the
//     phase does not write (verticalVelocity reads u, v across rows; the
//     column kernels that follow it write w, T, S, rho, pbc on own rows).
//   - Row buffers are per worker (workScratch); the shared 2-D scratch
//     arrays (scr, scr2, btFx, btFy) are written owner-only by row, with a
//     barrier before any neighbour-row read (barotropic divergence,
//     smoothing increments). Rolling row windows (face velocities, tracer
//     fluxes, Laplacians) are re-primed at each block's first row, so a face
//     on a block seam is computed by both neighbours, identically.
//
// Every phase body is bound ONCE in bindPhases and reused each step, with
// per-step inputs staged through the phases fields: a closure literal at a
// pool.Run call site is heap-allocated on every call (see internal/pool's
// allocation contract), which would break the steady-state zero-allocation
// guarantee of the coupled step.

// phases carries the pre-bound phase closures and their staged parameters.
type phases struct {
	f   *Forcing  // current forcing
	k   int       // level of the per-level phases
	fld []float64 // barotropic field being smoothed

	slow        func(w, lo, hi int)
	tracerTend  func(w, lo, hi int)
	tracerApply func(w, lo, hi int)
	column      func(w, lo, hi int)
	fast        func(w, lo, hi int)
	internal    func(w, lo, hi int)
	btDiv       func(w, lo, hi int)
	btMom       func(w, lo, hi int)
	btCont      func(w, lo, hi int)
	btSmoothC   func(w, lo, hi int)
	btSmoothA   func(w, lo, hi int)
	coupleBt    func(w, lo, hi int)
	unsplitFS   func(w, lo, hi int)
	smoothC     func(w, lo, hi int)
	smoothA     func(w, lo, hi int)
	finish      func(w, lo, hi int)
}

// bindPhases builds the phase closures, once per model; they pick up the
// per-worker scratch of whatever pool is attached. Phases receive block
// ranges over the NLat-2 interior rows and shift by one: they write rows
// [1, NLat-1) while the closed boundary rows keep their all-land zeros.
//
//foam:hotphases
func (m *Model) bindPhases() *phases {
	ph := &phases{}
	dt := m.cfg.DtTracer
	dtf := m.cfg.DtInternal
	dtb := m.cfg.DtBaro

	// Long step: w and the slow momentum tendencies it advects with.
	ph.slow = func(w, r0, r1 int) {
		m.verticalVelocity(m.ws[w], 1+r0, 1+r1)
		m.slowMomentum(m.ws[w], ph.f, 1+r0, 1+r1)
	}
	ph.tracerTend = func(w, r0, r1 int) { m.tracerTend(m.ws[w], ph.k, 1+r0, 1+r1) }
	ph.tracerApply = func(_, r0, r1 int) { m.tracerApply(ph.k, 1+r0, 1+r1, dt) }
	// Column physics at the long step. Density is refreshed before the
	// Richardson mixing so it reflects the just-advected tracers (and so no
	// hidden state survives a restart).
	ph.column = func(w, r0, r1 int) {
		m.surfaceTracerForcing(ph.f, 1+r0, 1+r1, dt)
		m.density(1+r0, 1+r1)
		m.verticalMixing(m.ws[w].mix, 1+r0, 1+r1, dt)
		m.convectiveAdjust(1+r0, 1+r1)
		m.freezeClamp(1+r0, 1+r1, dt)
	}
	// Internal gravity-wave loop, buoyancy half: vertical advection of the
	// stratification, then density and pressure, refreshed every subcycle so
	// internal waves are integrated at the short step where they are stable.
	ph.fast = func(w, r0, r1 int) {
		m.verticalVelocity(m.ws[w], 1+r0, 1+r1)
		m.verticalTracerStep(m.ws[w], 1+r0, 1+r1, dtf)
		m.density(1+r0, 1+r1)
		m.baroclinicPressure(m.ws[w], 1+r0, 1+r1)
	}
	ph.internal = func(w, r0, r1 int) { m.internalStep(m.ws[w], 1+r0, 1+r1, dtf) }
	ph.btDiv = func(w, r0, r1 int) { m.btDivergence(m.ws[w], 1+r0, 1+r1) }
	ph.btMom = func(_, r0, r1 int) { m.btMomentum(1+r0, 1+r1, dtb) }
	ph.btCont = func(w, r0, r1 int) { m.btContinuity(m.ws[w], 1+r0, 1+r1, dtb) }
	ph.btSmoothC = func(_, r0, r1 int) { m.smoothIncrement(m.scr, ph.fld, 0, 0.02, 1+r0, 1+r1) }
	ph.btSmoothA = func(_, r0, r1 int) { m.smoothApply(ph.fld, m.scr, 0, 1+r0, 1+r1) }
	ph.coupleBt = func(w, r0, r1 int) { m.coupleBarotropic(m.ws[w], 1+r0, 1+r1) }
	ph.unsplitFS = func(w, r0, r1 int) { m.unsplitFreeSurface(m.ws[w], 1+r0, 1+r1, dtf) }
	ph.smoothC = func(_, r0, r1 int) {
		m.smoothIncrement(m.scr, m.u[ph.k], ph.k, 0.04, 1+r0, 1+r1)
		m.smoothIncrement(m.scr2, m.v[ph.k], ph.k, 0.04, 1+r0, 1+r1)
	}
	ph.smoothA = func(_, r0, r1 int) {
		m.smoothApply(m.u[ph.k], m.scr, ph.k, 1+r0, 1+r1)
		m.smoothApply(m.v[ph.k], m.scr2, ph.k, 1+r0, 1+r1)
	}
	// The polar filter keeps the converging-meridian rows stable; the
	// velocity limiter follows it.
	ph.finish = func(w, r0, r1 int) {
		m.polarFilter(m.ws[w].filt, 1+r0, 1+r1)
		m.clampVelocities(1+r0, 1+r1)
	}
	return ph
}

// stepPhases advances the full model one tracer interval: slow tendencies,
// horizontal transport and column physics at the long step, then the fast
// subcycles — the "fastest parts of the internal dynamics" of the paper's
// Section 4.2: the internal gravity-wave loop (velocity <- pressure
// gradients, buoyancy <- vertical advection of the stratification) plus the
// split 2-D barotropic system on the fastest of the three time levels.
func (m *Model) stepPhases(f *Forcing) {
	rows, nlev := m.cfg.NLat-2, m.cfg.NLev
	p, ph := m.pool, m.ph
	ph.f = f

	p.Run(rows, ph.slow)
	// The tendency reads tracer values on neighbour rows, so the apply of a
	// level waits for every worker's tendency.
	for ph.k = 0; ph.k < nlev; ph.k++ {
		p.Run(rows, ph.tracerTend)
		p.Run(rows, ph.tracerApply)
	}
	p.Run(rows, ph.column)

	for n := 0; n < m.cfg.Subcycles(); n++ {
		p.Run(rows, ph.fast)
		p.Run(rows, ph.internal)
		if m.cfg.Split {
			for b := 0; b < m.cfg.BaroSubcycles(); b++ {
				p.Run(rows, ph.btDiv)
				p.Run(rows, ph.btMom)
				p.Run(rows, ph.btCont)
				for _, fld := range [3][]float64{m.eta, m.ubt, m.vbt} {
					ph.fld = fld
					p.Run(rows, ph.btSmoothC)
					p.Run(rows, ph.btSmoothA)
				}
			}
			p.Run(rows, ph.coupleBt)
		} else {
			p.Run(rows, ph.unsplitFS)
		}
		// Velocity smoothing reads just-updated neighbour velocities: the
		// increments of a level are stored, then added after the barrier.
		for ph.k = 0; ph.k < nlev; ph.k++ {
			p.Run(rows, ph.smoothC)
			p.Run(rows, ph.smoothA)
		}
	}
	p.Run(rows, ph.finish)
	ph.f, ph.fld = nil, nil
}
