package ocean

// stepSlab advances the slab ("mixed-layer") ocean of Config.ModeSlab: a
// motionless layer of depth Config.SlabDepth that integrates the coupler's
// heat and freshwater fluxes, freezes at the paper's -1.92 C clamp, and
// reports the same water-equivalent ice-formation flux the full model
// hands to the coupler's sea ice. Wind stress and all interior dynamics
// are ignored, and the model holds no levels below the surface. This is
// the classic sensitivity-study ocean: the SST responds to the surface
// energy balance on the mixed-layer timescale with no transport feedback.
func (m *Model) stepSlab(f *Forcing) {
	dt := m.cfg.DtTracer
	h := m.cfg.slabDepth()
	n := m.cfg.NLat * m.cfg.NLon
	const lFusion = 3.34e5
	for c := 0; c < n; c++ {
		m.iceFlux[c] = 0
		if m.kmt[c] == 0 {
			continue
		}
		if f != nil {
			m.t[0][c] += f.Heat[c] * dt / (Rho0 * CpOcean * h)
			// Virtual salt flux, as in surfaceTracerForcing (no free
			// surface to carry the volume source in slab mode).
			fwMS := f.FreshWater[c] / 1000.0 // m/s of fresh water
			m.s[0][c] -= m.s[0][c] * fwMS * dt / h
		}
		if m.t[0][c] < TFreeze {
			deficit := (TFreeze - m.t[0][c]) * Rho0 * CpOcean * h // J/m^2
			m.t[0][c] = TFreeze
			m.iceFlux[c] = deficit / lFusion / dt
			// Brine rejection: freezing removes fresh water.
			m.s[0][c] += m.s[0][c] * (m.iceFlux[c] / 1000.0) * dt / h
		}
	}
}
