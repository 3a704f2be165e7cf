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

// atmState is the atmComponent's checkpointable state: the atmosphere
// snapshot, the coupler-side surface models, the mid-interval flux
// accumulators, and the mirrored ocean surface (which, under a lagged
// schedule, is older than the ocean's live state and must round-trip).
type atmState struct {
	atm                *atmos.Snapshot
	landT              [][4]float64
	landWater          []float64
	landSnow           []float64
	riverVol           []float64
	iceThick           []float64
	iceTSurf           []float64
	accTauX, accTauY   []float64
	accHeat, accFW     []float64
	accRunoff          []float64
	accSteps           int
	mirSST, mirIceForm []float64
}

// Snapshot implements sched.Snapshotter.
func (c *atmComponent) Snapshot() any {
	cp := c.cpl
	s := &atmState{
		atm:       c.at.Snapshot(),
		landT:     append([][4]float64(nil), cp.Land.T...),
		landWater: append([]float64(nil), cp.Land.Water...),
		landSnow:  append([]float64(nil), cp.Land.Snow...),
		riverVol:  append([]float64(nil), cp.River.Volume...),
		iceThick:  append([]float64(nil), cp.Ice.Thick...),
		iceTSurf:  append([]float64(nil), cp.Ice.TSurf...),
	}
	s.accTauX, s.accTauY, s.accHeat, s.accFW, s.accRunoff, s.accSteps = cp.AccumSnapshot()
	s.mirSST, s.mirIceForm = cp.MirrorSnapshot()
	return s
}

// fits reports whether s has the shapes of this atmosphere and coupler.
func (c *atmComponent) fits(s *atmState) error {
	if err := c.at.Fits(s.atm); err != nil {
		return err
	}
	cp := c.cpl
	nAtm, nOcn := len(cp.Land.Water), cp.OcnGrid.Size()
	for _, f := range []struct {
		name      string
		got, want int
	}{
		{"LandT", len(s.landT), len(cp.Land.T)}, {"LandWater", len(s.landWater), nAtm},
		{"LandSnow", len(s.landSnow), len(cp.Land.Snow)}, {"RiverVol", len(s.riverVol), len(cp.River.Volume)},
		{"IceThick", len(s.iceThick), len(cp.Ice.Thick)}, {"IceTSurf", len(s.iceTSurf), len(cp.Ice.TSurf)},
		{"AccTauX", len(s.accTauX), nOcn}, {"AccTauY", len(s.accTauY), nOcn},
		{"AccHeat", len(s.accHeat), nOcn}, {"AccFW", len(s.accFW), nOcn},
		{"AccRunoff", len(s.accRunoff), nAtm},
		{"CplSST", len(s.mirSST), nOcn}, {"CplIceForm", len(s.mirIceForm), nOcn},
	} {
		if f.got != f.want {
			return fmt.Errorf("core: checkpoint field %s has length %d, the model has %d", f.name, f.got, f.want)
		}
	}
	return nil
}

// RestoreSnapshot implements sched.Snapshotter. A state that does not fit
// is an error and leaves the component untouched.
func (c *atmComponent) RestoreSnapshot(v any) error {
	s, ok := v.(*atmState)
	if !ok {
		return fmt.Errorf("core: atmosphere snapshot has type %T", v)
	}
	if err := c.fits(s); err != nil {
		return err
	}
	cp := c.cpl
	if err := c.at.Restore(s.atm); err != nil {
		return err
	}
	copy(cp.Land.T, s.landT)
	copy(cp.Land.Water, s.landWater)
	copy(cp.Land.Snow, s.landSnow)
	copy(cp.River.Volume, s.riverVol)
	copy(cp.Ice.Thick, s.iceThick)
	copy(cp.Ice.TSurf, s.iceTSurf)
	cp.RestoreAccum(s.accTauX, s.accTauY, s.accHeat, s.accFW, s.accRunoff, s.accSteps)
	cp.SetSST(s.mirSST)
	cp.SetIceFormation(s.mirIceForm)
	return nil
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

// Snapshot implements sched.Snapshotter.
func (c *ocnComponent) Snapshot() any { return c.oc.Snapshot() }

// RestoreSnapshot implements sched.Snapshotter.
func (c *ocnComponent) RestoreSnapshot(v any) error {
	s, ok := v.(*ocean.Snapshot)
	if !ok {
		return fmt.Errorf("core: ocean snapshot has type %T", v)
	}
	return c.oc.Restore(s)
}

// The components must satisfy the full contract (and its optional faces).
var (
	_ sched.Component   = (*atmComponent)(nil)
	_ sched.PoolAware   = (*atmComponent)(nil)
	_ sched.Snapshotter = (*atmComponent)(nil)
	_ sched.Component   = (*ocnComponent)(nil)
	_ sched.PoolAware   = (*ocnComponent)(nil)
	_ sched.Snapshotter = (*ocnComponent)(nil)
)
