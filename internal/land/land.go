// Package land implements the FOAM land surface: the CCM2-style four-layer
// soil heat diffusion model with five soil types, a snow layer, and the
// Manabe/Budyko bucket hydrology of the paper (15 cm field capacity, a
// wetness factor D_w entering the latent heat flux, runoff overflow to the
// river model, and snow deeper than 1 m liquid-water-equivalent shed to the
// rivers to mimic the near-equilibrium Greenland and Antarctic ice sheets).
package land

import (
	"math"

	"foam/internal/atmos"
	"foam/internal/data"
	"foam/internal/sphere"
)

// RhoWater converts between water mass per area (kg/m^2) and liquid water
// depth (m): the density of fresh water, kg/m^3.
const RhoWater = 1000.0

// Field capacity of the soil moisture bucket, metres of water (the paper's
// 15 cm box).
const BucketCapacity = 0.15

// SnowShedDepth is the liquid-water-equivalent snow depth (m) above which the
// excess is sent to the river model (ice-sheet mimic).
const SnowShedDepth = 1.0

// Input is the per-cell atmospheric state and radiation the land model
// consumes each step.
type Input struct {
	SWDown, LWDown float64 // W/m^2
	TAir, QAir     float64 // lowest-level temperature (K) and humidity
	UAir, VAir     float64 // lowest-level winds, m/s
	Ps             float64 // surface pressure, Pa
	ZRef           float64 // height of the lowest level, m
	Rain, Snowfall float64 // kg/m^2/s reaching the ground
}

// Output is the land model's reply.
type Output struct {
	TSurf    float64 // radiative surface temperature, K
	Albedo   float64
	Sensible float64 // upward W/m^2
	Evap     float64 // upward kg/m^2/s
	TauX     float64 // stress opposing the wind, N/m^2
	TauY     float64 // N/m^2
	Runoff   float64 // kg/m^2/s to the river model
	SnowShed float64 // kg/m^2/s to the river model from deep snow
}

// Model holds the land state for every cell of a grid (only cells flagged
// land are stepped).
type Model struct {
	grid  *sphere.Grid
	types []int
	mask  []bool

	// Per-cell state.
	T     [][4]float64 // soil layer temperatures, K
	Water []float64    // bucket soil moisture, m
	Snow  []float64    // snow depth, m liquid water equivalent
}

// New builds a land model with soil types and land mask from the synthetic
// Earth (or caller-provided slices of the same length as grid cells).
func New(g *sphere.Grid, types []int, mask []bool) *Model {
	n := g.Size()
	if len(types) != n || len(mask) != n {
		panic("land: size mismatch")
	}
	m := &Model{grid: g, types: types, mask: mask}
	m.T = make([][4]float64, n)
	m.Water = make([]float64, n)
	m.Snow = make([]float64, n)
	for j := 0; j < g.NLat(); j++ {
		t0 := 288 - 35*math.Pow(math.Sin(g.Lats[j]), 2)
		for i := 0; i < g.NLon(); i++ {
			c := g.Index(j, i)
			for l := 0; l < 4; l++ {
				m.T[c][l] = t0
			}
			m.Water[c] = 0.5 * BucketCapacity
			if types[c] == data.SoilIce {
				m.Snow[c] = SnowShedDepth // ice sheets start at equilibrium
			}
		}
	}
	return m
}

// IsLand reports whether cell c is stepped by this model.
func (m *Model) IsLand(c int) bool { return m.mask[c] }

// SoilTemperature returns layer-l temperature of cell c.
func (m *Model) SoilTemperature(c, l int) float64 { return m.T[c][l] }

// SoilWater returns the bucket content (m) of cell c.
func (m *Model) SoilWater(c int) float64 { return m.Water[c] }

// SnowDepth returns snow LWE (m) of cell c.
func (m *Model) SnowDepth(c int) float64 { return m.Snow[c] }

// Wetness returns the evaporation wetness factor D_w of cell c: 1 for snow
// or ice surfaces, otherwise the bucket fraction relative to 75% capacity
// (the Manabe formulation).
func (m *Model) Wetness(c int) float64 {
	if m.types[c] == data.SoilIce || m.Snow[c] > 0.002 {
		return 1
	}
	return math.Min(1, m.Water[c]/(0.75*BucketCapacity))
}

// Albedo returns the current broadband albedo of cell c (snow-modified).
func (m *Model) Albedo(c int) float64 {
	base := data.Soils[m.types[c]].Albedo
	if m.Snow[c] > 0.002 {
		f := math.Min(1, m.Snow[c]/0.05)
		base = base*(1-f) + 0.75*f
	}
	return base
}

// Step advances one land cell by dt seconds and returns the fluxes.
func (m *Model) Step(c int, in Input, dt float64) Output {
	props := data.Soils[m.types[c]]
	T := &m.T[c]
	var out Output
	out.Albedo = m.Albedo(c)

	// Turbulent exchange coefficients from the CCM2 bulk formulas.
	wind := math.Hypot(in.UAir, in.VAir)
	ri := atmos.BulkRichardson(in.ZRef, T[0], in.TAir, in.QAir, wind)
	z0 := props.Roughness
	if m.Snow[c] > 0.002 {
		z0 = 0.005
	}
	cd, ce := atmos.BulkCoefficients(in.ZRef, z0, ri)
	rho := in.Ps / (atmos.RDry * in.TAir)
	wEff := math.Max(wind, 1)

	out.TauX = rho * cd * wEff * in.UAir
	out.TauY = rho * cd * wEff * in.VAir

	// Latent heat: bulk formula scaled by the wetness factor; limited by
	// available water.
	dw := m.Wetness(c)
	qs := atmos.SatHum(T[0], in.Ps)
	evap := rho * ce * wEff * (qs - in.QAir) * dw
	if evap < 0 {
		evap = 0 // no dew in the bucket model
	}

	// Surface energy balance on the thin top layer, with the longwave and
	// turbulent terms linearized in the new surface temperature for
	// stability.
	lv := atmos.LVap
	if m.Snow[c] > 0.002 || T[0] < 273.15 {
		lv = atmos.LVap + atmos.LFus // sublimation
	}
	cond := props.Conductivity / (0.5 * (props.LayerDepth[0] + props.LayerDepth[1]))
	heatCap := props.HeatCapacity * props.LayerDepth[0]
	emit := 0.96
	// Explicit fluxes at current Ts.
	net := in.SWDown*(1-out.Albedo) + emit*in.LWDown -
		emit*atmos.StefBo*atmos.Pow4(T[0]) -
		rho*atmos.Cp*ce*wEff*(T[0]-in.TAir) -
		lv*evap +
		cond*(T[1]-T[0])
	// Linearized implicit update: dF/dTs of the stabilizing terms.
	dfdt := 4*emit*atmos.StefBo*atmos.Pow3(T[0]) + rho*atmos.Cp*ce*wEff + cond
	dT := net * dt / (heatCap + dfdt*dt)
	T[0] += dT

	// Deeper layers: implicit-free diffusion (they are thick; explicit is
	// stable at a 30-minute step).
	for l := 1; l < 4; l++ {
		capL := props.HeatCapacity * props.LayerDepth[l]
		up := props.Conductivity / (0.5 * (props.LayerDepth[l-1] + props.LayerDepth[l])) * (T[l-1] - T[l])
		down := 0.0
		if l < 3 {
			down = props.Conductivity / (0.5 * (props.LayerDepth[l] + props.LayerDepth[l+1])) * (T[l+1] - T[l])
		}
		T[l] += (up + down) * dt / capL
	}

	// --- Hydrology (the Manabe bucket).
	// Snow accumulation and melt.
	m.Snow[c] += in.Snowfall * dt / RhoWater // kg/m^2 -> m LWE
	if T[0] > 273.15 && m.Snow[c] > 0 {
		// Melt energy limited by the surface excess above freezing.
		meltCap := (T[0] - 273.15) * heatCap / (RhoWater * atmos.LFus) // m LWE
		melt := math.Min(m.Snow[c], meltCap)
		m.Snow[c] -= melt
		m.Water[c] += melt
		T[0] -= melt * RhoWater * atmos.LFus / heatCap
	}
	// Rain into the bucket; evaporation out (snow sublimates first).
	m.Water[c] += in.Rain * dt / RhoWater
	ev := evap * dt / RhoWater
	if m.Snow[c] > 0 {
		sub := math.Min(m.Snow[c], ev)
		m.Snow[c] -= sub
		ev -= sub
	}
	if ev > m.Water[c] {
		// Cannot evaporate more than is there: reduce the reported flux.
		short := ev - m.Water[c]
		evap -= short * RhoWater / dt
		ev = m.Water[c]
	}
	m.Water[c] -= ev
	out.Evap = evap
	out.Sensible = rho * atmos.Cp * ce * wEff * (T[0] - in.TAir)

	// Runoff: bucket overflow.
	if m.Water[c] > BucketCapacity {
		out.Runoff = (m.Water[c] - BucketCapacity) * RhoWater / dt
		m.Water[c] = BucketCapacity
	}
	// Ice-sheet mimic: shed deep snow to the rivers.
	if m.Snow[c] > SnowShedDepth {
		out.SnowShed = (m.Snow[c] - SnowShedDepth) * RhoWater / dt
		m.Snow[c] = SnowShedDepth
	}
	out.TSurf = T[0]
	return out
}
