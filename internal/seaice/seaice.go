// Package seaice implements the FOAM sea ice treatment of the paper's
// Section 4.3: thermodynamic ice whose temperature is determined "by
// treating it as another soil type", prescribed roughness and albedo,
// conductive coupling to an ocean clamped at -1.92 C, formation treated as
// a freshwater flux out of the ocean, and atmosphere-ice stress divided by
// 15 before being passed to the ocean.
//
//foam:deterministic
package seaice

import (
	"math"

	"foam/internal/atmos"
)

// Dimensional constants of the ice column. FormationDepth is deliberately
// not annotated: the growth law uses FormationDepth/2 as a dimensionless
// acceleration factor (the paper's immediate 2 m formation recast as a
// rate multiplier), not as a length.
//
//foam:units IceRoughness=m IceConductivity=W/m/K FreezePoint=K MinThickness=m LatentFusion=J/kg
const (
	// Albedo of bare sea ice.
	IceAlbedo = 0.60
	// Roughness length of sea ice, m.
	IceRoughness = 5e-4
	// Conductivity of sea ice, W/(m K).
	IceConductivity = 2.03
	// StressDivisor scales the atmosphere-ice stress before it reaches the
	// ocean ("arbitrarily divided by 15" in the paper).
	StressDivisor = 15.0
	// FreezePoint in kelvin (-1.92 C).
	FreezePoint = 273.15 - 1.92
	// MinThickness below which a cell is treated as open water, m.
	MinThickness = 0.02
	// FormationDepth: the paper treats ice formation as "a flux of 2 m of
	// water out of the ocean"; new ice in a freezing cell starts at this
	// thickness.
	FormationDepth = 2.0
	// LatentFusion of ice, J/kg.
	LatentFusion = 3.34e5
)

// Conversion and bulk-exchange constants, named so the unit checker can
// prove each flux conversion instead of trusting bare factors.
//
//foam:units RhoWater=kg/m^3 CpIce=J/kg/K RhoSeawater=kg/m^3 CpSeawater=J/kg/K BasalExchangeVelocity=m/s
const (
	// RhoWater converts water-equivalent ice thickness (m) to mass per
	// area (kg/m^2).
	RhoWater = 1000.0
	// CpIce is the specific heat of sea ice.
	CpIce = 2100.0
	// RhoSeawater and CpSeawater set the heat content of the basal
	// boundary layer.
	RhoSeawater = 1025.0
	CpSeawater  = 3990.0
	// BasalExchangeVelocity is the bulk heat-transfer piston velocity
	// between the mixed layer and the ice underside.
	BasalExchangeVelocity = 5e-6
)

// Model holds sea ice state on the ocean grid.
type Model struct {
	n int
	//foam:units Thick=m
	Thick []float64 // ice thickness, m (water equivalent)
	//foam:units TSurf=K
	TSurf []float64 // ice surface temperature, K
	//foam:transient tend advection tendency scratch, fully rewritten by each Advect call
	tend []float64 // advection tendency scratch, reused every call
}

// New creates an ice-free model for n cells.
func New(n int) *Model {
	m := &Model{n: n, Thick: make([]float64, n), TSurf: make([]float64, n),
		tend: make([]float64, n)}
	for c := range m.TSurf {
		m.TSurf[c] = FreezePoint
	}
	return m
}

// Present reports whether cell c carries ice thick enough to matter.
func (m *Model) Present(c int) bool { return m.Thick[c] >= MinThickness }

// Coverage returns the fraction of cells with ice (diagnostic).
func (m *Model) Coverage() float64 {
	n := 0
	for c := 0; c < m.n; c++ {
		if m.Present(c) {
			n++
		}
	}
	return float64(n) / float64(m.n)
}

// Input is the per-cell atmospheric state over ice.
type Input struct {
	//foam:units SWDown=W/m^2 LWDown=W/m^2
	SWDown, LWDown float64
	//foam:units TAir=K
	TAir, QAir float64
	//foam:units UAir=m/s VAir=m/s
	UAir, VAir float64
	//foam:units Ps=Pa ZRef=m
	Ps, ZRef float64
	//foam:units Snowfall=kg/m^2/s
	Snowfall float64 // kg/m^2/s, accretes onto the ice

	// OceanFreeze is the ocean's diagnosed freezing flux for this cell,
	// kg/m^2/s of water equivalent (from the -1.92 C clamp).
	OceanFreeze float64
}

// Output carries the fluxes back to the coupler.
type Output struct {
	//foam:units TSurf=K
	TSurf, Albedo float64
	//foam:units Sensible=W/m^2 Evap=kg/m^2/s
	Sensible, Evap float64 // upward, over the ice surface
	//foam:units TauXOcean=N/m^2 TauYOcean=N/m^2
	TauXOcean, TauYOcean float64 // stress passed to the ocean (already divided)
	//foam:units TauXAtm=N/m^2 TauYAtm=N/m^2
	TauXAtm, TauYAtm float64 // stress opposing the atmosphere
	//foam:units OceanHeat=W/m^2
	OceanHeat float64 // conductive heat flux into the ocean, W/m^2
	//foam:units MeltWater=kg/m^2/s
	MeltWater float64 // kg/m^2/s of fresh water released to the ocean
}

// Step advances one cell by dt seconds.
//
//foam:units dt=s
func (m *Model) Step(c int, in Input, dt float64) Output {
	var out Output
	// Growth from the ocean clamp.
	m.Thick[c] += in.OceanFreeze * dt / RhoWater * (FormationDepth / 2) // accelerate to the paper's 2 m formation scale
	if in.OceanFreeze > 0 && m.Thick[c] < 2*MinThickness {
		// New ice consolidates quickly to a workable thickness (the paper
		// treats formation as an immediate 2 m water flux; we are gentler
		// but keep the same idea of a finite starting thickness).
		m.Thick[c] = 2 * MinThickness
	}
	m.Thick[c] += in.Snowfall * dt / RhoWater

	if !m.Present(c) {
		out.TSurf = FreezePoint
		out.Albedo = 0.07
		return out
	}
	out.Albedo = IceAlbedo

	// Surface energy balance, linearized in the new surface temperature
	// (same treatment as a thin soil layer, per the paper).
	wind := math.Hypot(in.UAir, in.VAir)
	ri := atmos.BulkRichardson(in.ZRef, m.TSurf[c], in.TAir, in.QAir, wind)
	cd, ce := atmos.BulkCoefficients(in.ZRef, IceRoughness, ri)
	rho := in.Ps / (atmos.RDry * in.TAir)
	wEff := math.Max(wind, 1)

	ts := m.TSurf[c]
	qs := atmos.SatHum(ts, in.Ps)
	evap := math.Max(0, rho*ce*wEff*(qs-in.QAir))
	lv := atmos.LVap + atmos.LFus
	cond := IceConductivity / math.Max(m.Thick[c], MinThickness)
	const emit = 0.97
	heatCap := RhoWater * CpIce * math.Min(m.Thick[c], 0.5) // ice heat capacity of the active layer
	net := in.SWDown*(1-out.Albedo) + emit*in.LWDown -
		emit*atmos.StefBo*atmos.Pow4(ts) -
		rho*atmos.Cp*ce*wEff*(ts-in.TAir) -
		lv*evap +
		cond*(FreezePoint-ts)
	dfdt := 4*emit*atmos.StefBo*atmos.Pow3(ts) + rho*atmos.Cp*ce*wEff + cond
	ts += net * dt / (heatCap + dfdt*dt)

	// Surface melt when above freezing.
	if ts > 273.15 {
		meltCap := (ts - 273.15) * heatCap / (RhoWater * LatentFusion)
		melt := math.Min(m.Thick[c], meltCap)
		m.Thick[c] -= melt
		out.MeltWater = melt * RhoWater / dt
		ts = 273.15
	}
	m.TSurf[c] = ts
	out.TSurf = ts
	out.Sensible = rho * atmos.Cp * ce * wEff * (ts - in.TAir)
	out.Evap = evap
	// Sublimation consumes ice.
	m.Thick[c] -= evap * dt / RhoWater
	if m.Thick[c] < 0 {
		m.Thick[c] = 0
	}

	// Stresses: full drag on the atmosphere, reduced transmission to the
	// ocean.
	out.TauXAtm = rho * cd * wEff * in.UAir
	out.TauYAtm = rho * cd * wEff * in.VAir
	out.TauXOcean = out.TauXAtm / StressDivisor
	out.TauYOcean = out.TauYAtm / StressDivisor
	// Conductive flux into the ocean: heat drawn from the water keeps the
	// underside at the freezing point ("the sea surface may continue to
	// lose heat by conduction with the lowest ice layer").
	out.OceanHeat = -cond * math.Max(0, FreezePoint-ts) * 0.1
	return out
}

// BasalMelt removes ice from below when the ocean is warmer than freezing,
// returning the freshwater flux (kg/m^2/s). sstC is the ocean temperature
// in Celsius.
//
//foam:units sstC=degC dt=s return=kg/m^2/s
func (m *Model) BasalMelt(c int, sstC, dt float64) float64 {
	if !m.Present(c) || sstC <= -1.92 {
		return 0
	}
	// Bulk basal heat transfer.
	q := RhoSeawater * CpSeawater * BasalExchangeVelocity * (sstC + 1.92) // W/m^2
	melt := math.Min(m.Thick[c], q*dt/(RhoWater*LatentFusion))
	m.Thick[c] -= melt
	return melt * RhoWater / dt
}

// Advect drifts the ice thickness with the given surface velocity field
// (free drift at a fraction of the ocean surface current — the paper lists
// "updating this part of the model" as a high priority; this is the minimal
// dynamic extension). Donor-cell fluxes on the lat-lon grid with no flow
// through coasts; exactly conservative. u, v are ocean surface currents
// (m/s); mask is 1 on wet cells; dx, dy are per-row spacings (m); cosLat
// per row. dt in seconds.
func (m *Model) Advect(u, v, mask []float64, dx, dy, cosLat []float64, nlat, nlon int, dt float64) {
	const driftFactor = 0.7 // ice drifts slower than the surface water
	thick := m.Thick
	tend := m.tend
	for c := range tend {
		tend[c] = 0
	}
	// East faces.
	for j := 0; j < nlat; j++ {
		lim := 0.45 * dx[j] / dt
		for i := 0; i < nlon; i++ {
			c := j*nlon + i
			ie := j*nlon + (i+1)%nlon
			if mask[c] < 0.5 || mask[ie] < 0.5 {
				continue
			}
			uf := driftFactor * 0.5 * (u[c] + u[ie])
			if uf > lim {
				uf = lim
			} else if uf < -lim {
				uf = -lim
			}
			var flux float64
			if uf > 0 {
				flux = uf * thick[c]
			} else {
				flux = uf * thick[ie]
			}
			tend[c] -= flux / dx[j]
			tend[ie] += flux / dx[j]
		}
	}
	// North faces with metric factors.
	for j := 0; j < nlat-1; j++ {
		cosF := 0.5 * (cosLat[j] + cosLat[j+1])
		lim := 0.45 * math.Min(dy[j], dy[j+1]) / dt
		for i := 0; i < nlon; i++ {
			c := j*nlon + i
			jn := (j+1)*nlon + i
			if mask[c] < 0.5 || mask[jn] < 0.5 {
				continue
			}
			vf := driftFactor * 0.5 * (v[c] + v[jn])
			if vf > lim {
				vf = lim
			} else if vf < -lim {
				vf = -lim
			}
			var flux float64
			if vf > 0 {
				flux = vf * thick[c]
			} else {
				flux = vf * thick[jn]
			}
			flux *= cosF
			tend[c] -= flux / (dy[j] * cosLat[j])
			tend[jn] += flux / (dy[j+1] * cosLat[j+1])
		}
	}
	for c := range thick {
		thick[c] += dt * tend[c]
		if thick[c] < 0 {
			thick[c] = 0
		}
	}
}
