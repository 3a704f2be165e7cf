// Package ocean implements the FOAM ocean: a z-coordinate primitive-equation
// model on an unstaggered (A-grid) Mercator latitude-longitude grid, with the
// three speed techniques of the paper's Section 4.2:
//
//  1. an explicitly represented free surface whose dynamics are artificially
//     slowed (Tobis's slowed barotropic dynamics);
//  2. the free surface split into a separate two-dimensional system coupled
//     to the internal ocean, so the 3-D internal dynamics can take a much
//     longer step; and
//  3. subcycled time stepping — the internal step is used only for the
//     fastest internal dynamics (Coriolis, baroclinic pressure gradients)
//     while advection and diffusion use a yet longer step.
//
// Setting Split=false and Slowdown=1 recovers a conventional unsplit
// explicit free-surface model whose single time step is limited by the
// unslowed external gravity wave — the in-repo baseline for experiments E5,
// E7 and E10.
package ocean

import (
	"fmt"
	"math"
)

// Physical constants.
const (
	Rho0    = 1025.0  // Boussinesq reference density, kg/m^3
	CpOcean = 3990.0  // seawater heat capacity, J/(kg K)
	TFreeze = -1.92   // sea water freezing clamp, deg C (paper Section 4.3)
	GravOc  = 9.80616 // m/s^2
)

// Expansion coefficients of the simplified UNESCO-like equation of state
// rho' = Rho0*(EosAlpha*(T-10) + EosAlpha2*(T-10)^2 + EosBeta*(S-35)):
// each term is a dimensionless density fraction, so the coefficients carry
// the inverse powers of the temperature and salinity anomalies (1/K,
// 1/K^2, 1/psu).
const (
	EosAlpha  = -1.67e-4 // linear thermal expansion about 10 degC
	EosAlpha2 = -0.78e-5 // quadratic thermal expansion (cabbeling)
	EosBeta   = 7.6e-4   // haline contraction about 35 psu
)

// Config describes an ocean configuration.
type Config struct {
	NLat, NLon, NLev   int
	LatSouth, LatNorth float64 // domain extent, degrees

	DtTracer   float64 // advection/diffusion/physics step, s (21600 in FOAM)
	DtInternal float64 // fast internal dynamics step, s
	DtBaro     float64 // 2-D barotropic substep, s (the fastest of the three)
	Slowdown   float64 // barotropic gravity-wave slowdown factor (1 = physical)
	Split      bool    // split 2-D barotropic subsystem from the internal mode

	AH         float64 // horizontal tracer diffusivity, m^2/s
	AM         float64 // horizontal Laplacian viscosity, m^2/s
	BiharmCoef float64 // nondimensional del^4 momentum damping per tracer step
	KappaB     float64 // background vertical diffusivity, m^2/s
	Kappa0     float64 // Richardson-mixing amplitude, m^2/s
	SteepMix   bool    // steeper Ri exponent (Peters-Gregg-Toole), paper default

	TotalDepth     float64 // m
	PolarFilterLat float64 // apply Fourier filter poleward of this latitude, deg

	// Ablation switches (experiment E10): disable individual slow terms.
	NoMomentumAdvection bool
	NoBiharmonic        bool

	// Mode selects the ocean representation the scenario engine composes:
	// "" or ModeFull is the full primitive-equation model above; ModeSlab
	// is a motionless mixed layer that stores heat and fresh water and
	// freezes (the classic slab ocean of sensitivity studies); ModeOff
	// prescribes the initial surface state and evolves nothing.
	Mode string

	// SlabDepth is the slab mixed-layer depth in m (0 means 50).
	SlabDepth float64

	// RotationScale multiplies the planetary rotation rate in the Coriolis
	// parameter (0 means 1, the physical rate).
	RotationScale float64
}

// Ocean representation modes (Config.Mode).
const (
	ModeFull = "full"
	ModeSlab = "slab"
	ModeOff  = "off"
)

// rotation returns the effective rotation multiplier (RotationScale with
// the zero value meaning the physical rate).
func (c Config) rotation() float64 {
	if c.RotationScale == 0 {
		return 1
	}
	return c.RotationScale
}

// slabDepth returns the effective slab mixed-layer depth, m.
func (c Config) slabDepth() float64 {
	if c.SlabDepth == 0 {
		return 50
	}
	return c.SlabDepth
}

// DefaultConfig is the paper's configuration: 128 x 128 Mercator grid
// (~1.4 deg x 2.8 deg), 16 stretched levels, 6-hour tracer step, 45-minute
// internal step, slowdown 16.
func DefaultConfig() Config {
	return Config{
		NLat: 128, NLon: 128, NLev: 16,
		LatSouth: -72, LatNorth: 72,
		DtTracer:       21600,
		DtInternal:     5400,
		DtBaro:         2700,
		Slowdown:       16,
		Split:          true,
		AH:             1.0e4,
		AM:             1.0e5,
		BiharmCoef:     0.25,
		KappaB:         1.0e-5,
		Kappa0:         5.0e-3,
		SteepMix:       true,
		TotalDepth:     4500,
		PolarFilterLat: 66,
	}
}

// BaselineConfig is the conventional comparator: no splitting, physical
// gravity, one short step for everything, sized by the external gravity
// wave CFL on the finest row.
func BaselineConfig() Config {
	c := DefaultConfig()
	c.Split = false
	c.Slowdown = 1
	// dx at the poleward rows ~ a*cos(72 deg)*dlon; external wave sqrt(gH).
	dx := 6.371e6 * math.Cos(72*math.Pi/180) * 2 * math.Pi / float64(c.NLon)
	cext := math.Sqrt(GravOc * c.TotalDepth)
	dt := 0.4 * dx / cext
	c.DtInternal = dt
	c.DtBaro = dt
	c.DtTracer = dt
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.NLat < 4 || c.NLon < 4 || c.NLev < 2 {
		return fmt.Errorf("ocean: grid too small %dx%dx%d", c.NLat, c.NLon, c.NLev)
	}
	if c.DtTracer < c.DtInternal {
		return fmt.Errorf("ocean: tracer step %.0f shorter than internal step %.0f", c.DtTracer, c.DtInternal)
	}
	if c.Slowdown < 1 {
		return fmt.Errorf("ocean: slowdown %.2f must be >= 1", c.Slowdown)
	}
	if c.DtBaro <= 0 {
		return fmt.Errorf("ocean: DtBaro must be positive")
	}
	if c.DtInternal < c.DtBaro {
		return fmt.Errorf("ocean: internal step %.0f shorter than barotropic step %.0f", c.DtInternal, c.DtBaro)
	}
	if c.LatSouth >= c.LatNorth {
		return fmt.Errorf("ocean: bad latitude range")
	}
	switch c.Mode {
	case "", ModeFull, ModeSlab, ModeOff:
	default:
		return fmt.Errorf("ocean: unknown mode %q (want %q, %q or %q)", c.Mode, ModeFull, ModeSlab, ModeOff)
	}
	if c.SlabDepth < 0 {
		return fmt.Errorf("ocean: negative slab depth %g", c.SlabDepth)
	}
	if c.RotationScale < 0 {
		return fmt.Errorf("ocean: negative rotation scale %g", c.RotationScale)
	}
	if c.AH < 0 || c.AM < 0 {
		return fmt.Errorf("ocean: negative horizontal diffusivity (AH=%g, AM=%g)", c.AH, c.AM)
	}
	if c.KappaB < 0 || c.Kappa0 < 0 {
		return fmt.Errorf("ocean: negative vertical diffusivity (KappaB=%g, Kappa0=%g)", c.KappaB, c.Kappa0)
	}
	if c.BiharmCoef < 0 {
		return fmt.Errorf("ocean: negative biharmonic damping %g", c.BiharmCoef)
	}
	return nil
}

// Subcycles returns the number of internal steps per tracer step.
func (c Config) Subcycles() int {
	n := int(math.Round(c.DtTracer / c.DtInternal))
	if n < 1 {
		n = 1
	}
	return n
}

// BaroSubcycles returns the number of barotropic substeps per internal step.
func (c Config) BaroSubcycles() int {
	n := int(math.Round(c.DtInternal / c.DtBaro))
	if n < 1 {
		n = 1
	}
	return n
}
