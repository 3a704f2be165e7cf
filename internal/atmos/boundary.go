package atmos

import "math"

// LowestLevel carries the atmospheric state the surface needs each step:
// the lowest model level, surface radiative fluxes, and precipitation
// reaching the ground. In the coupled model the coupler consumes this (the
// paper's "new code responsible for transferring data to the coupler"); in
// standalone runs a data boundary does.
type LowestLevel struct {
	NCell              int
	T, Q, U, V         []float64 // lowest full level temperature (K), humidity, winds (m/s)
	Ps                 []float64 // surface pressure, Pa
	Z                  []float64 // height of the lowest level above the surface, m
	SWDown, LWDown     []float64 // downward radiative fluxes at the surface, W/m^2
	RainRate, SnowRate []float64 // precipitation reaching the ground, kg/m^2/s
	CosZ               []float64 // cosine of the solar zenith angle
}

// SurfaceExchange is the surface's reply: the state the atmosphere's
// radiation and boundary layer need, plus turbulent fluxes.
type SurfaceExchange struct {
	TSurf    []float64 // radiative surface temperature, K
	Albedo   []float64 // broadband shortwave albedo
	TauX     []float64 // zonal surface stress opposing the wind, N/m^2
	TauY     []float64 // meridional surface stress, N/m^2
	Sensible []float64 // upward sensible heat flux, W/m^2
	Evap     []float64 // upward moisture flux, kg/m^2/s
}

// NewSurfaceExchange allocates an exchange for n cells.
func NewSurfaceExchange(n int) *SurfaceExchange {
	return &SurfaceExchange{
		TSurf:    make([]float64, n),
		Albedo:   make([]float64, n),
		TauX:     make([]float64, n),
		TauY:     make([]float64, n),
		Sensible: make([]float64, n),
		Evap:     make([]float64, n),
	}
}

// Boundary computes surface exchange from the lowest-level state. The FOAM
// coupler implements this; UniformOcean provides a stand-alone substitute.
type Boundary interface {
	Exchange(in *LowestLevel, dt float64) *SurfaceExchange
}

// VonKarman is the von Karman constant.
const VonKarman = 0.4

// BulkCoefficients returns stability-dependent bulk transfer coefficients
// (momentum cd, heat/moisture ce) for a measurement height z, roughness
// length z0 and bulk Richardson number ri. This is the CCM2-style
// formulation the paper cites: the neutral coefficient times the stability
// factor. Callers that hold z and z0 fixed across many ri (the coupler's
// overlap pieces) multiply the two parts themselves.
func BulkCoefficients(z, z0, ri float64) (cd, ce float64) {
	cd = NeutralCoefficient(z, z0) * StabilityFactor(ri)
	ce = cd // equal heat and momentum coefficients in the bulk scheme
	return cd, ce
}

// NeutralCoefficient returns the neutral transfer coefficient
// (k/ln(z/z0))^2 for a measurement height z and roughness length z0. A
// nonpositive z0 falls back to 1e-4 m, and z is held at least 2*z0 above
// the surface.
func NeutralCoefficient(z, z0 float64) float64 {
	if z0 <= 0 {
		z0 = 1e-4
	}
	if z < 2*z0 {
		z = 2 * z0
	}
	cn := VonKarman / math.Log(z/z0)
	return cn * cn
}

// StabilityFactor scales the neutral coefficient by the bulk Richardson
// number ri: negative ri (unstable) enhances transfer, positive ri
// (stable) suppresses it.
//
// The surface-flux formulas use the max builtin, which the compiler
// inlines; math.Max is an assembly call on amd64. Both follow the same
// rules for infinities and signed zeros.
func StabilityFactor(ri float64) float64 {
	switch {
	case ri < 0:
		return math.Sqrt(1 - 16*max(ri, -10))
	case ri < 0.2:
		d := 1 - 5*ri
		return d * d
	default:
		return 1e-3
	}
}

// charnockDrag is the square root of the neutral drag coefficient at 10 m
// over a 1e-4 m roughness, the constant OceanRoughness scales the wind by.
var charnockDrag = func() float64 {
	cn := VonKarman / math.Log(10/1e-4)
	return math.Sqrt(cn * cn)
}()

// OceanRoughness returns the ocean aerodynamic roughness length in the
// CCM3 formulation (the paper: "a diagnosed surface roughness which is a
// function of wind speed and stability"): a Charnock relation on the
// neutral friction velocity. Both physics versions use it.
func OceanRoughness(wind float64) float64 {
	// One-pass Charnock: u* from the neutral drag at 10 m, z0 = a u*^2/g.
	ustar := charnockDrag * max(wind, 1)
	z0 := 0.011*ustar*ustar/9.80616 + 1.5e-5
	return z0
}

// BulkRichardson computes the bulk Richardson number between the surface
// and height z.
func BulkRichardson(z, tsurf, tair, q, wind float64) float64 {
	thS := tsurf * (1 + 0.61*q)
	thA := (tair + 0.0098*z) * (1 + 0.61*q) // dry-adiabatic reduction to surface
	w2 := max(wind*wind, 1)
	return 9.80616 * z * (thA - thS) / (0.5 * (thA + thS) * w2)
}

// UniformOcean is a data boundary: a globally uniform, fixed sea surface
// temperature with CCM-style bulk fluxes. It lets the atmosphere run (and
// be benchmarked, per experiment E6/E8) without the coupler.
type UniformOcean struct {
	SST    float64
	albedo float64
	out    *SurfaceExchange // the reply, reused every step (one boundary serves one model)
}

// NewUniformOcean creates a data ocean at the given SST in kelvin.
func NewUniformOcean(sst float64) *UniformOcean {
	return &UniformOcean{SST: sst, albedo: 0.07}
}

// Exchange implements Boundary. Like the coupler's, the returned exchange
// is owned by the boundary and overwritten by the next call.
func (o *UniformOcean) Exchange(in *LowestLevel, dt float64) *SurfaceExchange {
	if o.out == nil || len(o.out.TSurf) != in.NCell {
		o.out = NewSurfaceExchange(in.NCell)
	}
	out := o.out
	for c := 0; c < in.NCell; c++ {
		wind := math.Hypot(in.U[c], in.V[c])
		z := in.Z[c]
		z0 := OceanRoughness(wind)
		ri := BulkRichardson(z, o.SST, in.T[c], in.Q[c], wind)
		cd, ce := BulkCoefficients(z, z0, ri)
		rho := in.Ps[c] / (RDry * in.T[c])
		wEff := math.Max(wind, 1)
		out.TSurf[c] = o.SST
		out.Albedo[c] = o.albedo
		out.TauX[c] = rho * cd * wEff * in.U[c]
		out.TauY[c] = rho * cd * wEff * in.V[c]
		out.Sensible[c] = rho * Cp * ce * wEff * (o.SST - in.T[c])
		qs := SatHum(o.SST, in.Ps[c])
		out.Evap[c] = rho * ce * wEff * math.Max(qs-in.Q[c], -in.Q[c])
	}
	return out
}
