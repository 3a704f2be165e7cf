// Package scenario is FOAM's declarative configuration spine: a versioned,
// JSON-serializable Spec composes a resolution rung (the R5→R21 ladder of
// the E8 sweep), a physics package (CCM2/CCM3/adiabatic, per E11), an
// ocean representation (full/slab/off plus the Section-4.2 speed switches),
// a boundary-condition world (earth/aquaplanet/ice-world/paleo masks from
// internal/data), rotation and calendar multipliers, and perturbed-physics
// parameter deltas. Build compiles a Spec into a validated core.Config —
// the FromScenario construction path — with core.Config.Normalize as the
// only validator behind it. The registry (registry.go) ships the named
// scenarios the CLI and the foam-serve tier expose.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"foam/internal/atmos"
	"foam/internal/core"
	"foam/internal/ocean"
	"foam/internal/spectral"
)

// Version is the Spec schema version this package reads and writes.
const Version = 1

// Spec is the declarative scenario description. The zero value plus a rung
// is a runnable spec; every field has a neutral zero so specs stay short.
type Spec struct {
	// V is the spec schema version: 0 (meaning current) or Version.
	V int `json:"v,omitempty"`

	Name        string `json:"name,omitempty"`
	Description string `json:"description,omitempty"`

	// Rung names the resolution rung: r5, r9, r15 or r21 (default r5).
	// The rung fixes the spectral truncation, the matched transform grid,
	// the time step and diffusion via the E8 scaling law, and the ocean
	// grid paired with it.
	Rung string `json:"rung,omitempty"`

	// Levels overrides the rung's atmosphere level count (0 keeps it).
	Levels int `json:"levels,omitempty"`

	// Physics selects the column-physics package: ccm3 (default), ccm2,
	// or adiabatic (dynamical core only).
	Physics string `json:"physics,omitempty"`

	// World names the boundary-condition set (data.WorldByName): earth
	// (default), aquaplanet, ice-world, paleo.
	World string `json:"world,omitempty"`

	Ocean OceanSpec `json:"ocean,omitempty"`

	// Flat disables orography; OrographyScale multiplies it (0 means 1).
	Flat           bool    `json:"flat,omitempty"`
	OrographyScale float64 `json:"orography_scale,omitempty"`

	// RotationScale multiplies the planetary rotation rate in both
	// components' Coriolis parameters (0 means 1). YearDays overrides the
	// orbital period in days (0 means the 360-day calendar).
	RotationScale float64 `json:"rotation_scale,omitempty"`
	YearDays      float64 `json:"year_days,omitempty"`

	// OceanLag selects synchronous (0) or lagged (1) coupling.
	OceanLag int `json:"ocean_lag,omitempty"`

	// Deltas are perturbed-physics multipliers applied after everything
	// else — the knob a perturbed-physics ensemble turns per member.
	Deltas []Delta `json:"deltas,omitempty"`
}

// OceanSpec selects the ocean representation and its speed switches.
type OceanSpec struct {
	// Mode is full (default), slab, or off (see ocean.Config.Mode).
	Mode string `json:"mode,omitempty"`
	// Split and SteepMix override the paper defaults (both true) when set.
	Split    *bool `json:"split,omitempty"`
	SteepMix *bool `json:"steep_mix,omitempty"`
	// Slowdown overrides the barotropic slowdown factor (0 keeps 16).
	Slowdown float64 `json:"slowdown,omitempty"`
	// SlabDepth is the slab mixed-layer depth in m (0 means 50).
	SlabDepth float64 `json:"slab_depth_m,omitempty"`
}

// Delta is one perturbed-physics multiplier: the named parameter is scaled
// by Scale. Param names are listed by DeltaParams.
type Delta struct {
	Param string  `json:"param"`
	Scale float64 `json:"scale"`
}

// Rung is one resolution rung of the ladder: the truncation with its
// matched transform grid and time step (atmos.ConfigForTruncation) and the
// ocean grid paired with it.
type Rung struct {
	Name                      string
	Trunc                     spectral.Truncation
	AtmLevels                 int
	OcnNLat, OcnNLon, OcnNLev int
}

// The R5→R21 ladder. r15 with the 128x128x16 ocean is the paper's
// configuration; r5 with a 48x48x8 ocean is the cheap test rung
// (r5-quick); r9 sits between; r21 doubles the horizontal
// resolution of the atmosphere over the paper's ocean.
var rungs = []Rung{
	{Name: "r5", Trunc: spectral.Rhomboidal(5), AtmLevels: 8, OcnNLat: 48, OcnNLon: 48, OcnNLev: 8},
	{Name: "r9", Trunc: spectral.Rhomboidal(9), AtmLevels: 12, OcnNLat: 64, OcnNLon: 64, OcnNLev: 12},
	{Name: "r15", Trunc: spectral.R15, AtmLevels: 18, OcnNLat: 128, OcnNLon: 128, OcnNLev: 16},
	{Name: "r21", Trunc: spectral.Rhomboidal(21), AtmLevels: 18, OcnNLat: 128, OcnNLon: 128, OcnNLev: 16},
}

// Rungs lists the resolution ladder in ascending order.
func Rungs() []Rung {
	return append([]Rung(nil), rungs...)
}

// RungByName resolves a rung; the empty string means r5.
func RungByName(name string) (Rung, error) {
	if name == "" {
		name = "r5"
	}
	for _, r := range rungs {
		if r.Name == name {
			return r, nil
		}
	}
	names := make([]string, len(rungs))
	for i, r := range rungs {
		names[i] = r.Name
	}
	return Rung{}, fmt.Errorf("scenario: unknown rung %q (have %v)", name, names)
}

// deltaParams maps perturbed-physics parameter names to their application.
// Every entry is a pure multiplier, so delta'd configs keep the same
// TableKey and a perturbed ensemble shares one table set.
var deltaParams = map[string]func(*core.Config, float64){
	"atm.diff4":        func(c *core.Config, s float64) { c.Atm.Diff4 *= s },
	"atm.robert_alpha": func(c *core.Config, s float64) { c.Atm.RobertAlpha *= s },
	"ocn.ah":           func(c *core.Config, s float64) { c.Ocn.AH *= s },
	"ocn.am":           func(c *core.Config, s float64) { c.Ocn.AM *= s },
	"ocn.biharm":       func(c *core.Config, s float64) { c.Ocn.BiharmCoef *= s },
	"ocn.kappab":       func(c *core.Config, s float64) { c.Ocn.KappaB *= s },
	"ocn.kappa0":       func(c *core.Config, s float64) { c.Ocn.Kappa0 *= s },
	"ocn.slowdown":     func(c *core.Config, s float64) { c.Ocn.Slowdown *= s },
}

// DeltaParams lists the valid perturbed-physics parameter names.
func DeltaParams() []string {
	names := make([]string, 0, len(deltaParams))
	for n := range deltaParams {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Build compiles a Spec into a validated core.Config: the rung fixes the
// grids and time steps, the remaining fields layer physics, world, ocean
// representation, rotation/calendar and deltas on top, and the result goes
// through core.Config.Normalize — the single validation gate — so every
// rejection wraps core.ErrConfig. Optional table pre-building stays with
// the caller via core.BuildTables on the returned config.
func Build(sp Spec) (core.Config, error) {
	if sp.V != 0 && sp.V != Version {
		return core.Config{}, fmt.Errorf("scenario: unsupported spec version %d (this build reads version %d)", sp.V, Version)
	}
	r, err := RungByName(sp.Rung)
	if err != nil {
		return core.Config{}, err
	}
	lev := r.AtmLevels
	if sp.Levels != 0 {
		lev = sp.Levels
	}

	var cfg core.Config
	cfg.Atm = atmos.ConfigForTruncation(r.Trunc, lev)
	cfg.Ocn = ocean.DefaultConfig()
	cfg.Ocn.NLat, cfg.Ocn.NLon, cfg.Ocn.NLev = r.OcnNLat, r.OcnNLon, r.OcnNLev

	// Faster rotation tightens the explicit-Coriolis stability bound, so
	// shrink the step to keep f*dt at its 1x value (the ocean's exact
	// Coriolis rotation needs no such help).
	if sp.RotationScale > 1 {
		cfg.Atm.Dt /= sp.RotationScale
	}

	// The paper's multi-rate cadence, expressed structurally: the ocean
	// couples every 6 simulated hours and radiation recomputes every two
	// coupling intervals (twice daily at the default step).
	cfg.OceanEvery = int(21600 / cfg.Atm.Dt)
	if cfg.OceanEvery < 1 {
		cfg.OceanEvery = 1
	}
	cfg.Atm.RadiationEvery = 2 * cfg.OceanEvery

	switch sp.Physics {
	case "", "ccm3":
		cfg.Atm.Physics = atmos.PhysicsCCM3
	case "ccm2":
		cfg.Atm.Physics = atmos.PhysicsCCM2
	case "adiabatic":
		cfg.Atm.Adiabatic = true
	default:
		return core.Config{}, fmt.Errorf("scenario: unknown physics package %q (want ccm3, ccm2 or adiabatic)", sp.Physics)
	}

	cfg.Ocn.Mode = sp.Ocean.Mode
	if sp.Ocean.Split != nil {
		cfg.Ocn.Split = *sp.Ocean.Split
	}
	if sp.Ocean.SteepMix != nil {
		cfg.Ocn.SteepMix = *sp.Ocean.SteepMix
	}
	if sp.Ocean.Slowdown != 0 {
		cfg.Ocn.Slowdown = sp.Ocean.Slowdown
	}
	cfg.Ocn.SlabDepth = sp.Ocean.SlabDepth

	cfg.World = sp.World
	cfg.Flat = sp.Flat
	if sp.OrographyScale != 0 {
		cfg.Atm.OrographyScale = sp.OrographyScale
	}
	if sp.RotationScale != 0 {
		cfg.Atm.RotationScale = sp.RotationScale
		cfg.Ocn.RotationScale = sp.RotationScale
	}
	cfg.Atm.YearDays = sp.YearDays
	cfg.OceanLag = sp.OceanLag

	for _, d := range sp.Deltas {
		apply, ok := deltaParams[d.Param]
		if !ok {
			return core.Config{}, fmt.Errorf("scenario: unknown delta parameter %q (have %v)", d.Param, DeltaParams())
		}
		if math.IsNaN(d.Scale) || math.IsInf(d.Scale, 0) {
			return core.Config{}, fmt.Errorf("scenario: delta %s has non-finite scale %v", d.Param, d.Scale)
		}
		apply(&cfg, d.Scale)
	}

	return cfg.Normalize()
}

// Decode parses a JSON spec strictly: unknown fields and trailing garbage
// are errors, so a typo'd knob never silently runs the default.
func Decode(b []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var sp Spec
	if err := dec.Decode(&sp); err != nil {
		return Spec{}, fmt.Errorf("scenario: %v", err)
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err == nil || err.Error() != "EOF" {
		return Spec{}, fmt.Errorf("scenario: trailing data after spec")
	}
	return sp, nil
}

// Encode renders the spec as indented JSON, stamping the schema version.
func (sp Spec) Encode() ([]byte, error) {
	sp.V = Version
	b, err := json.MarshalIndent(sp, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("scenario: %v", err)
	}
	return append(b, '\n'), nil
}
