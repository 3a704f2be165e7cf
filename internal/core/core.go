// Package core assembles the Fast Ocean-Atmosphere Model: the R15 spectral
// atmosphere, the 128x128 Mercator ocean, and the coupler, on the paper's
// multi-rate schedule — a 30-minute atmosphere step, radiation twice per
// simulated day, and the ocean called four times per simulated day with
// fluxes averaged over the interval.
//
// The assembly is layered (see DESIGN.md section 12): the models are
// wrapped as sched.Components (components.go), the multi-rate cadence is
// compiled into a sched.Program, and the exec executor interprets the
// program — serially or over a shared-memory worker pool, bit-identically.
package core

import (
	"errors"
	"fmt"

	"foam/internal/atmos"
	"foam/internal/coupler"
	"foam/internal/data"
	"foam/internal/exec"
	"foam/internal/ocean"
	"foam/internal/sched"
	"foam/internal/spectral"
	"foam/internal/sphere"
)

// Config configures the coupled model.
type Config struct {
	Atm atmos.Config
	Ocn ocean.Config

	// OceanEvery is the number of atmosphere steps per ocean call (12 at
	// the default steps: 6 h / 30 min).
	OceanEvery int

	// Flat disables the synthetic orography.
	Flat bool

	// World names the boundary-condition set (data.WorldByName): land
	// mask, orography, soils, bathymetry and river routing. Empty means
	// "earth". The scenario engine switches aquaplanet/ice-world/paleo
	// runs through this single field.
	World string

	// OceanLag selects the coupling style (sched.Schedule.Lag): 0 couples
	// synchronously at the coupling tick — the original serial semantics —
	// and 1 is the paper's lagged coupling, where the atmosphere consumes
	// the surface state the ocean produced one interval earlier, so on a
	// message-passing machine the ocean step overlaps the next interval's
	// atmosphere steps (Section 4, Figure 2; RunTraced shows the effect).
	// Both are deterministic and identical for any worker count; they are
	// distinct model trajectories.
	OceanLag int

	// Workers sets the shared-memory worker pool size used by the hot
	// loops of every component: 0 means GOMAXPROCS, 1 forces the exact
	// serial code path. Any value yields bit-identical results (see
	// internal/pool); the pool only changes how rows and coefficients are
	// divided among goroutines, never the order of floating-point
	// operations that touch any one output value.
	Workers int
}

// DefaultConfig is the paper's configuration.
func DefaultConfig() Config {
	return Config{
		Atm:        atmos.DefaultConfig(),
		Ocn:        ocean.DefaultConfig(),
		OceanEvery: 12,
	}
}

// ReducedConfig is a cheap configuration for tests and long-variability
// runs: an R5 atmosphere on its matched grid with 8 levels and a 48x48
// ocean with 8 levels. The multi-rate structure (radiation twice daily,
// ocean four times daily) is preserved.
func ReducedConfig() Config {
	c := Config{}
	c.Atm = atmos.ConfigForTruncation(spectral.Rhomboidal(5), 8)
	c.Atm.RadiationEvery = int(43200 / c.Atm.Dt)
	c.Ocn = ocean.DefaultConfig()
	c.Ocn.NLat, c.Ocn.NLon, c.Ocn.NLev = 48, 48, 8
	c.OceanEvery = int(21600 / c.Atm.Dt)
	if c.OceanEvery < 1 {
		c.OceanEvery = 1
	}
	return c
}

// ErrConfig tags every configuration rejection, so callers (the scenario
// compiler, the ensemble HTTP layer, tests) can match rejected specs with
// errors.Is regardless of which layer found the fault.
var ErrConfig = errors.New("core: invalid configuration")

// Normalize is the single validation and canonicalization gate for a
// coupled configuration: it derives the dependent time steps (the ocean
// tracer step matches the coupling interval, the internal and barotropic
// steps are clamped to it), canonicalizes the world and ocean-mode names,
// and validates everything — both component configs and the cross-component
// cadence. Every construction path (New, NewWithTables, the ensemble
// scheduler, scenario.Build) goes through it; there is no separate
// Validate. All rejections wrap ErrConfig.
func (c Config) Normalize() (Config, error) {
	if c.OceanEvery < 1 {
		return c, fmt.Errorf("%w: OceanEvery must be >= 1 (got %d)", ErrConfig, c.OceanEvery)
	}
	if c.OceanLag < 0 || c.OceanLag > 1 {
		return c, fmt.Errorf("%w: OceanLag must be 0 or 1 (got %d)", ErrConfig, c.OceanLag)
	}
	w, err := data.WorldByName(c.World)
	if err != nil {
		return c, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	c.World = w.Name
	if c.Ocn.Mode == "" {
		c.Ocn.Mode = ocean.ModeFull
	}
	c.Ocn.DtTracer = float64(c.OceanEvery) * c.Atm.Dt
	if c.Ocn.DtInternal > c.Ocn.DtTracer {
		c.Ocn.DtInternal = c.Ocn.DtTracer
	}
	if c.Ocn.DtBaro > c.Ocn.DtInternal {
		c.Ocn.DtBaro = c.Ocn.DtInternal
	}
	if err := c.Atm.Validate(); err != nil {
		return c, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	if err := c.Ocn.Validate(); err != nil {
		return c, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	// The multi-rate cadence must nest: radiation recomputation aligns
	// with coupling boundaries so every coupling interval replays one op
	// pattern and members forked at interval boundaries agree on the
	// radiation phase.
	if c.Atm.RadiationEvery%c.OceanEvery != 0 {
		return c, fmt.Errorf("%w: RadiationEvery %d is not a multiple of OceanEvery %d",
			ErrConfig, c.Atm.RadiationEvery, c.OceanEvery)
	}
	return c, nil
}

// Model is the coupled FOAM model: the component wrappers, the compiled
// multi-rate program, and the executor that runs it. The concrete models
// stay exported for diagnostics and analysis; all stepping goes through
// the executor.
type Model struct {
	cfg Config

	Atm *atmos.Model
	Ocn *ocean.Model
	Cpl *coupler.Coupler

	atmC  *atmComponent
	ocnC  *ocnComponent
	comps []sched.Component
	prog  *sched.Program
	ex    *exec.Executor // its tick is the count of atmosphere steps completed
}

// New builds the coupled model on the synthetic Earth.
func New(cfg Config) (*Model, error) {
	return NewWithTables(cfg, nil)
}

// NewWithTables builds the coupled model over a prebuilt shared table set
// (see Tables): the grids, spectral tables, bathymetry, orography, overlap
// remap and river network are adopted read-only instead of rebuilt, so the
// new model allocates only prognostic state and per-step workspaces. A nil
// tb builds a private set — New is exactly that. The trajectory is
// bit-identical either way: BuildTables runs the same constructions New
// always ran, just once per resolution instead of once per model.
func NewWithTables(cfg Config, tb *Tables) (*Model, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	if tb == nil {
		tb = BuildTables(cfg)
	} else if err := tb.check(cfg); err != nil {
		return nil, err
	}
	m := &Model{cfg: cfg}

	oc, err := ocean.NewOnGrid(cfg.Ocn, tb.KMT, tb.OcnGrid)
	if err != nil {
		return nil, err
	}
	m.Ocn = oc

	cp := coupler.NewShared(tb.AtmGrid, oc.Grid(), oc.Mask(), coupler.Shared{
		Overlap: tb.Overlap,
		Rivers:  tb.Rivers,
		Land:    tb.AtmLand,
		Soil:    tb.AtmSoil,
	})
	m.Cpl = cp

	at, err := atmos.NewShared(cfg.Atm, cp, atmos.Shared{Grid: tb.AtmGrid, Transform: tb.Spectral})
	if err != nil {
		return nil, err
	}
	if !cfg.Flat {
		// 0 (unset) and 1 (neutral) are exact literal sentinels; any other value scales.
		if s := cfg.Atm.OrographyScale; s != 0 && s != 1 {
			scaled := make([]float64, len(tb.Orography))
			for i, v := range tb.Orography {
				scaled[i] = s * v
			}
			at.SetOrography(scaled)
		} else {
			at.SetOrography(tb.Orography)
		}
	}
	m.Atm = at
	// Give the coupler the initial ocean state.
	cp.AbsorbOcean(oc)

	// Wrap the models as components and compile the paper's multi-rate
	// cadence into a program.
	m.atmC = newAtmComponent(at, cp, cfg.Ocn.DtTracer)
	m.ocnC = newOcnComponent(oc)
	m.comps = []sched.Component{m.atmC, m.ocnC}
	prog, err := sched.Schedule{
		BaseDt:      cfg.Atm.Dt,
		CoupleEvery: cfg.OceanEvery,
		Lag:         cfg.OceanLag,
	}.Compile(m.comps)
	if err != nil {
		return nil, err
	}
	m.prog = prog

	// Serial for Workers == 1, otherwise the shared-memory pool threaded
	// through every component's hot loops. Either way the numerics are
	// identical (see internal/exec).
	m.ex = exec.New(prog, m.comps, cfg.Workers)
	return m, nil
}

// Close stops the worker pool (idempotent). The model stays usable and
// steps serially afterwards, on the same trajectory.
func (m *Model) Close() { m.ex.Close() }

// Config returns the model configuration.
func (m *Model) Config() Config { return m.cfg }

// StepCount returns completed atmosphere steps.
func (m *Model) StepCount() int { return m.ex.Tick() }

// SimTime returns the simulated time in seconds.
func (m *Model) SimTime() float64 { return float64(m.ex.Tick()) * m.cfg.Atm.Dt }

// Step advances one atmosphere step, calling the ocean on schedule (one
// program tick).
func (m *Model) Step() { m.ex.Steps(1) }

// StepDays advances the given number of simulated days (truncated to whole
// atmosphere steps) in one executor call.
func (m *Model) StepDays(days float64) {
	m.ex.Steps(int(days * sphere.SecondsPerDay / m.cfg.Atm.Dt))
}

// Diagnostics bundles component diagnostics.
type Diagnostics struct {
	Atm atmos.StepDiagnostics
	Ocn ocean.Diagnostics
	// MeanSSTModel is the area-mean model SST over wet cells, deg C.
	MeanSSTModel float64
}

// Diagnostics returns the latest combined diagnostics.
func (m *Model) Diagnostics() Diagnostics {
	return Diagnostics{
		Atm:          m.Atm.Diagnostics(),
		Ocn:          m.Ocn.Diagnostics(),
		MeanSSTModel: m.Ocn.Diagnostics().MeanSST,
	}
}

// SST returns the model sea surface temperature (deg C, ocean grid, live).
func (m *Model) SST() []float64 { return m.Ocn.SST() }
