package core

import (
	"fmt"

	"foam/internal/atmos"
	"foam/internal/coupler"
	"foam/internal/ocean"
	"foam/internal/pool"
	"foam/internal/sched"
)

// atmComponent adapts the atmosphere — with its co-resident coupler (land,
// rivers, sea ice, flux accumulation), mirroring the paper's placement of
// the coupler on the atmosphere nodes — to the sched.Component contract.
// It exports the interval-averaged ocean forcing prepared by Couple and
// imports the ocean's surface state; importing the surface currents also
// advects the sea ice, exactly where the serial loop did.
type atmComponent struct {
	at  *atmos.Model
	cpl *coupler.Coupler

	coupleDt float64
	drained  *ocean.Forcing // set by Couple, consumed by ExportInto
	uBuf     []float64      // zonal current staging between the two current imports
}

func newAtmComponent(at *atmos.Model, cpl *coupler.Coupler, coupleDt float64) *atmComponent {
	return &atmComponent{
		at: at, cpl: cpl, coupleDt: coupleDt,
		uBuf: make([]float64, cpl.OcnGrid.Size()),
	}
}

// Name implements sched.Component.
func (c *atmComponent) Name() string { return "atmosphere" }

// Step advances one atmosphere step (surface exchange included, through
// the coupler acting as the atmosphere's Boundary).
func (c *atmComponent) Step() { c.at.Step() }

// Couple closes a coupling interval: average the accumulated fluxes and
// route the rivers, leaving the result staged for ExportInto.
func (c *atmComponent) Couple(dt float64) { c.drained = c.cpl.DrainOceanForcing(dt) }

var atmImports = []sched.Field{sched.FieldSST, sched.FieldIceForm, sched.FieldCurrentU, sched.FieldCurrentV}
var atmExports = []sched.Field{sched.FieldTauX, sched.FieldTauY, sched.FieldHeat, sched.FieldFreshWater}

// Imports implements sched.Component. The order is load-bearing: the
// surface currents come last, and CurrentV triggers the ice advection.
func (c *atmComponent) Imports() []sched.Field { return atmImports }

// Exports implements sched.Component.
func (c *atmComponent) Exports() []sched.Field { return atmExports }

// FieldLen implements sched.Component; every coupling field lives on the
// ocean grid.
func (c *atmComponent) FieldLen(sched.Field) int { return c.cpl.OcnGrid.Size() }

// ExportInto implements sched.Component: copy one forcing field from the
// drained interval average.
func (c *atmComponent) ExportInto(dst []float64, f sched.Field) {
	if c.drained == nil {
		panic("core: atmosphere export before Couple")
	}
	switch f {
	case sched.FieldTauX:
		copy(dst, c.drained.TauX)
	case sched.FieldTauY:
		copy(dst, c.drained.TauY)
	case sched.FieldHeat:
		copy(dst, c.drained.Heat)
	case sched.FieldFreshWater:
		copy(dst, c.drained.FreshWater)
	default:
		panic(fmt.Sprintf("core: atmosphere does not export %q", f))
	}
}

// Import implements sched.Component: install one piece of the ocean's
// surface state. The CurrentU/CurrentV pair arrives in declared order, so
// CurrentV completes the pair and drifts the sea ice over the interval.
func (c *atmComponent) Import(f sched.Field, src []float64) {
	switch f {
	case sched.FieldSST:
		c.cpl.SetSST(src)
	case sched.FieldIceForm:
		c.cpl.SetIceFormation(src)
	case sched.FieldCurrentU:
		copy(c.uBuf, src)
	case sched.FieldCurrentV:
		c.cpl.AdvectIce(c.uBuf, src, c.coupleDt)
	default:
		panic(fmt.Sprintf("core: atmosphere does not import %q", f))
	}
}

// SetPool implements sched.PoolAware for the atmosphere and the
// co-resident coupler together.
func (c *atmComponent) SetPool(p *pool.Pool) {
	c.at.SetPool(p)
	c.cpl.SetPool(p)
}

// ocnComponent adapts the ocean model to the sched.Component contract: it
// imports the interval-averaged forcing into a component-owned buffer,
// steps one tracer interval under it, and exports the new surface state.
type ocnComponent struct {
	oc *ocean.Model
	// f is forcing staging: ImportFrom overwrites every slot from the
	// coupler before each couple interval's steps.
	f *ocean.Forcing
}

func newOcnComponent(oc *ocean.Model) *ocnComponent {
	return &ocnComponent{oc: oc, f: ocean.NewForcing(oc.Grid().Size())}
}

// Name implements sched.Component.
func (c *ocnComponent) Name() string { return "ocean" }

// Step advances one ocean tracer interval under the imported forcing.
func (c *ocnComponent) Step() { c.oc.Step(c.f) }

// Couple implements sched.Component; the ocean has no interval bookkeeping
// of its own.
func (c *ocnComponent) Couple(float64) {}

var ocnImports = []sched.Field{sched.FieldTauX, sched.FieldTauY, sched.FieldHeat, sched.FieldFreshWater}
var ocnExports = []sched.Field{sched.FieldSST, sched.FieldIceForm, sched.FieldCurrentU, sched.FieldCurrentV}

// Imports implements sched.Component.
func (c *ocnComponent) Imports() []sched.Field { return ocnImports }

// Exports implements sched.Component.
func (c *ocnComponent) Exports() []sched.Field { return ocnExports }

// FieldLen implements sched.Component.
func (c *ocnComponent) FieldLen(sched.Field) int { return c.oc.Grid().Size() }

// ExportInto implements sched.Component.
func (c *ocnComponent) ExportInto(dst []float64, f sched.Field) {
	switch f {
	case sched.FieldSST:
		copy(dst, c.oc.SST())
	case sched.FieldIceForm:
		copy(dst, c.oc.IceFormation())
	case sched.FieldCurrentU:
		u, _ := c.oc.SurfaceCurrents()
		copy(dst, u)
	case sched.FieldCurrentV:
		_, v := c.oc.SurfaceCurrents()
		copy(dst, v)
	default:
		panic(fmt.Sprintf("core: ocean does not export %q", f))
	}
}

// Import implements sched.Component.
func (c *ocnComponent) Import(f sched.Field, src []float64) {
	switch f {
	case sched.FieldTauX:
		copy(c.f.TauX, src)
	case sched.FieldTauY:
		copy(c.f.TauY, src)
	case sched.FieldHeat:
		copy(c.f.Heat, src)
	case sched.FieldFreshWater:
		copy(c.f.FreshWater, src)
	default:
		panic(fmt.Sprintf("core: ocean does not import %q", f))
	}
}

// SetPool implements sched.PoolAware.
func (c *ocnComponent) SetPool(p *pool.Pool) { c.oc.SetPool(p) }

// The components must satisfy the contract and its pool face.
var (
	_ sched.Component = (*atmComponent)(nil)
	_ sched.PoolAware = (*atmComponent)(nil)
	_ sched.Component = (*ocnComponent)(nil)
	_ sched.PoolAware = (*ocnComponent)(nil)
)
