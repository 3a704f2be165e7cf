// Package river implements the FOAM coupler's river transport model after
// Miller, Russell and Caliri, as the paper describes: each land cell has a
// flow direction toward one of its eight neighbours; the outflow is
// F = V*u/d with V the stored river volume (local runoff plus inflow from
// up to seven neighbours), u a constant effective flow velocity of
// 0.35 m/s, and d the downstream distance. Mouth cells convert the outflow
// back to a freshwater flux over the receiving ocean cell, closing the
// hydrological cycle. Precipitation and evaporation do not act on river
// water and its temperature is not tracked, also per the paper.
package river

import (
	"foam/internal/data"
	"foam/internal/sphere"
)

// FlowVelocity is the constant effective river flow velocity, m/s.
const FlowVelocity = 0.35

// RhoWater converts runoff mass flux (kg/m^2/s) to the volume (m^3) the
// routing stores.
const RhoWater = 1000.0

// Model routes runoff on the atmosphere grid.
type Model struct {
	net  *data.RiverNetwork
	grid *sphere.Grid

	// Volume is the stored river water per land cell, m^3.
	Volume []float64

	// outflux accumulates freshwater delivered to ocean cells (on the same
	// grid) during the last step, kg/m^2/s.
	outflux []float64

	// out is the per-step outflow scratch (m^3 shipped per cell).
	out []float64
}

// New builds a river model over a prepared network.
func New(net *data.RiverNetwork) *Model {
	n := net.Grid.Size()
	return &Model{
		net:     net,
		grid:    net.Grid,
		Volume:  make([]float64, n),
		outflux: make([]float64, n),
		out:     make([]float64, n),
	}
}

// Network returns the underlying flow network.
func (m *Model) Network() *data.RiverNetwork { return m.net }

// Step adds runoff (kg/m^2/s per cell, zero over ocean) for dt seconds,
// advances the routing, and returns the freshwater flux (kg/m^2/s) arriving
// at ocean cells of the atmosphere grid.
func (m *Model) Step(runoff []float64, dt float64) []float64 {
	g := m.grid
	n := g.Size()
	if len(runoff) != n {
		panic("river: runoff size mismatch")
	}
	for c := range m.outflux {
		m.outflux[c] = 0
	}
	// Add local runoff to storage (kg/m^2/s * area / rho -> m^3). Runoff
	// generated on cells the network classifies as ocean (coastal cells
	// whose land fraction the coupler resolves more finely) passes straight
	// through as local outflow, so no water is ever dropped.
	for j := 0; j < g.NLat(); j++ {
		for i := 0; i < g.NLon(); i++ {
			c := g.Index(j, i)
			if m.net.Dir[c] == data.DirOcean {
				m.outflux[c] += runoff[c]
				continue
			}
			m.Volume[c] += runoff[c] * g.Area(j, i) * dt / RhoWater
		}
	}
	// Outflow F = V*u/d, applied synchronously (explicit step); the factor
	// is capped at 1 so a cell cannot ship more water than it holds.
	out := m.out
	for c := 0; c < n; c++ {
		out[c] = 0
		if m.net.Dir[c] == data.DirOcean || m.Volume[c] <= 0 {
			continue
		}
		frac := FlowVelocity * dt / m.net.Dist[c]
		if frac > 1 {
			frac = 1
		}
		out[c] = m.Volume[c] * frac
	}
	for c := 0; c < n; c++ {
		if out[c] <= 0 {
			continue
		}
		m.Volume[c] -= out[c]
		dst := m.net.Downstream(c)
		if dst < 0 {
			continue // unroutable; water stays lost-free in storage
		}
		if m.net.Dir[c] == data.DirMouth {
			j := dst / g.NLon()
			i := dst % g.NLon()
			m.outflux[dst] += out[c] * RhoWater / (g.Area(j, i) * dt)
		} else {
			m.Volume[dst] += out[c]
		}
	}
	return m.outflux
}

// TotalStorage returns the total stored river water, m^3.
func (m *Model) TotalStorage() float64 {
	s := 0.0
	for _, v := range m.Volume {
		s += v
	}
	return s
}

// FluxIntegral returns the area integral of a kg/m^2/s flux field over the
// grid, in kg/s. Useful for closure tests.
func (m *Model) FluxIntegral(flux []float64) float64 {
	g := m.grid
	tot := 0.0
	for j := 0; j < g.NLat(); j++ {
		for i := 0; i < g.NLon(); i++ {
			tot += flux[g.Index(j, i)] * g.Area(j, i)
		}
	}
	return tot
}
