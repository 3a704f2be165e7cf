package ocean

// verticalMixing applies Richardson-number-dependent vertical diffusion to
// tracers and momentum with an implicit solve per column. This is the
// Pacanowski-Philander (1981) scheme; with cfg.SteepMix the exponent is
// steepened per the Peters, Gregg and Toole analysis, which the paper says
// "appears to improve the tropical Pacific SST field by reducing the model
// cold bias in the west equatorial Pacific". T, S, u and v share one
// diffusivity profile, so the tridiagonal matrix is assembled and factored
// (Thomas forward elimination) once per column and the four right-hand
// sides are then solved in place in the field arrays.
func (m *Model) verticalMixing(ms *mixScratch, j0, j1 int, dt float64) {
	nlon := m.cfg.NLon
	kap, sub, sup, piv := ms.kap, ms.sub, ms.sup, ms.piv
	for c := j0 * nlon; c < j1*nlon; c++ {
		kb := m.kmt[c]
		if kb < 2 {
			continue
		}
		// Interface diffusivities at half levels 1..kb-1 from the local Ri.
		for k := 1; k < kb; k++ {
			dzi := 0.5 * (m.dz[k-1] + m.dz[k])
			drho := m.rho[k][c] - m.rho[k-1][c] // positive = stable
			n2 := GravOc / Rho0 * drho / dzi
			du := (m.u[k][c] - m.u[k-1][c]) / dzi
			dv := (m.v[k][c] - m.v[k-1][c]) / dzi
			sh2 := du*du + dv*dv + 1e-10
			ri := n2 / sh2
			if ri < 0 {
				ri = 0 // unstable handled by convective adjustment
			}
			// (1+5Ri)^2 or ^3 by multiplication: bit-equal to math.Pow
			// (TestPowByMultiplication).
			x := 1 + 5*ri
			p := x * x
			if m.cfg.SteepMix {
				p = x * p
			}
			kap[k] = m.cfg.Kappa0/p + m.cfg.KappaB
		}
		// Assemble row k of (I - dt d/dz kap d/dz) and eliminate it: piv
		// holds the pivots, sup the scaled super-diagonal.
		for k := 0; k < kb; k++ {
			d := 1.0
			sub[k], sup[k] = 0, 0
			if k > 0 {
				a := kap[k] * dt / (m.dz[k] * (0.5 * (m.dz[k-1] + m.dz[k])))
				sub[k] = -a
				d += a
			}
			if k < kb-1 {
				a := kap[k+1] * dt / (m.dz[k] * (0.5 * (m.dz[k] + m.dz[k+1])))
				sup[k] = -a
				d += a
			}
			if k > 0 {
				d -= sub[k] * sup[k-1]
			}
			if k < kb-1 {
				sup[k] /= d
			}
			piv[k] = d
		}
		for _, x := range [4][][]float64{m.t, m.s, m.u, m.v} {
			x[0][c] /= piv[0]
			for k := 1; k < kb; k++ {
				x[k][c] = (x[k][c] - sub[k]*x[k-1][c]) / piv[k]
			}
			for k := kb - 2; k >= 0; k-- {
				x[k][c] -= sup[k] * x[k+1][c]
			}
		}
	}
}

// mixScratch is the column scratch of verticalMixing, one per worker.
type mixScratch struct {
	kap, sub, sup, piv []float64
}

func newMixScratch(nl int) *mixScratch {
	return &mixScratch{
		kap: make([]float64, nl+1),
		sub: make([]float64, nl), sup: make([]float64, nl), piv: make([]float64, nl),
	}
}

// convectiveAdjust removes static instability by pairwise mixing passes,
// conserving column heat and salt.
func (m *Model) convectiveAdjust(j0, j1 int) {
	nlon := m.cfg.NLon
	for c := j0 * nlon; c < j1*nlon; c++ {
		kb := m.kmt[c]
		if kb < 2 {
			continue
		}
		// Iterate passes until the column is statically stable (a lower
		// pair mixing can re-destabilize the pair above it).
		for pass := 0; pass < 3*kb; pass++ {
			mixed := false
			dUp := densityOf(m.t[0][c], m.s[0][c])
			for k := 0; k < kb-1; k++ {
				// Unstable when the upper layer is denser.
				dLo := densityOf(m.t[k+1][c], m.s[k+1][c])
				if dUp > dLo+1e-8 {
					w1, w2 := m.dz[k], m.dz[k+1]
					tm := (m.t[k][c]*w1 + m.t[k+1][c]*w2) / (w1 + w2)
					sm := (m.s[k][c]*w1 + m.s[k+1][c]*w2) / (w1 + w2)
					m.t[k][c], m.t[k+1][c] = tm, tm
					m.s[k][c], m.s[k+1][c] = sm, sm
					mixed = true
					dLo = densityOf(tm, sm)
				}
				dUp = dLo
			}
			if !mixed {
				break
			}
		}
	}
}

// densityOf is the EOS used for stability comparisons.
func densityOf(t, s float64) float64 {
	td := t - 10
	return Rho0 * (-1.67e-4*td - 0.78e-5*td*td + 7.6e-4*(s-35))
}
