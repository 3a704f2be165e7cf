package core

import (
	"fmt"

	"foam/internal/coupler"
	"foam/internal/data"
	"foam/internal/spectral"
	"foam/internal/sphere"
)

// Tables is the immutable table set every model built from one resolution
// shares: grid geometry for both components, the spectral transform tables
// (Gauss-Legendre nodes, FFT twiddles, flattened associated-Legendre
// tables), the synthetic Earth's bathymetry, orography and river routing,
// and the conservative overlap remap between the two grids. Everything
// here is read-only after BuildTables, so any number of concurrently
// stepping models may hold the same *Tables — per-model memory then
// reduces to prognostic state, which is what lets an ensemble server pack
// hundreds of members into one process (DESIGN.md section 13).
type Tables struct {
	AtmGrid *sphere.Grid
	OcnGrid *sphere.Grid

	// Spectral is the master transform. Models adopt it via Share(), so
	// each gets an independent pool binding over the shared tables.
	Spectral *spectral.Transform

	// KMT is the ocean bathymetry (active levels per cell) on OcnGrid;
	// the ocean model copies it at construction.
	KMT []int

	// Orography is the geopotential height field on AtmGrid.
	Orography []float64

	// Overlap is the conservative remap between AtmGrid and OcnGrid.
	Overlap *coupler.Overlap

	// Rivers is the river-routing network on AtmGrid.
	Rivers *data.RiverNetwork

	// World is the boundary-condition world (data.WorldByName) the masks
	// above were built from; AtmLand and AtmSoil are its land mask and
	// soil classes on AtmGrid, adopted read-only by each member's coupler.
	World   string
	AtmLand []bool
	AtmSoil []int
}

// worldName returns the canonical world name ("" means earth).
func (c Config) worldName() string {
	if c.World == "" {
		return data.Earth().Name
	}
	return c.World
}

// TableKey returns the resolution-and-world signature of the configuration:
// two configs with equal keys can share one *Tables. Scheduling fields
// (steps, lag, workers) and physics parameters are deliberately excluded —
// tables depend on geometry and boundary conditions only, which is what
// lets a perturbed-physics ensemble of one scenario share a single set.
func (c Config) TableKey() string {
	return fmt.Sprintf("a:R%d.%d/%dx%dx%d o:%dx%dx%d@%g:%g w:%s",
		c.Atm.Trunc.M, c.Atm.Trunc.K, c.Atm.NLat, c.Atm.NLon, c.Atm.NLev,
		c.Ocn.NLat, c.Ocn.NLon, c.Ocn.NLev, c.Ocn.LatSouth, c.Ocn.LatNorth,
		c.worldName())
}

// BuildTables constructs the shared table set for a configuration. The
// result depends only on the fields TableKey covers. The configuration
// must have passed Normalize (every construction path does); an unknown
// world name here is a programming error, not an input error.
func BuildTables(cfg Config) *Tables {
	w, err := data.WorldByName(cfg.World)
	if err != nil {
		panic(fmt.Sprintf("core: BuildTables on unnormalized config: %v", err))
	}
	atmGrid := sphere.NewGaussianGrid(cfg.Atm.NLat, cfg.Atm.NLon)
	ocnGrid := sphere.NewMercatorGrid(cfg.Ocn.NLat, cfg.Ocn.NLon, cfg.Ocn.LatSouth, cfg.Ocn.LatNorth)
	return &Tables{
		AtmGrid:   atmGrid,
		OcnGrid:   ocnGrid,
		Spectral:  spectral.NewTransform(cfg.Atm.Trunc, cfg.Atm.NLat, cfg.Atm.NLon),
		KMT:       w.OceanKMT(ocnGrid, cfg.Ocn.NLev),
		Orography: w.Orography(atmGrid),
		Overlap:   coupler.BuildOverlap(atmGrid, ocnGrid),
		Rivers:    w.BuildRivers(atmGrid),
		World:     w.Name,
		AtmLand:   w.LandMask(atmGrid),
		AtmSoil:   w.SoilTypes(atmGrid),
	}
}

// check validates the table set against a configuration.
func (tb *Tables) check(cfg Config) error {
	if tb.AtmGrid.NLat() != cfg.Atm.NLat || tb.AtmGrid.NLon() != cfg.Atm.NLon {
		return fmt.Errorf("core: shared atmosphere grid is %dx%d, config wants %dx%d",
			tb.AtmGrid.NLat(), tb.AtmGrid.NLon(), cfg.Atm.NLat, cfg.Atm.NLon)
	}
	if tb.OcnGrid.NLat() != cfg.Ocn.NLat || tb.OcnGrid.NLon() != cfg.Ocn.NLon {
		return fmt.Errorf("core: shared ocean grid is %dx%d, config wants %dx%d",
			tb.OcnGrid.NLat(), tb.OcnGrid.NLon(), cfg.Ocn.NLat, cfg.Ocn.NLon)
	}
	if tb.Spectral.Trunc != cfg.Atm.Trunc {
		return fmt.Errorf("core: shared transform truncation R(%d,%d) does not match config R(%d,%d)",
			tb.Spectral.Trunc.M, tb.Spectral.Trunc.K, cfg.Atm.Trunc.M, cfg.Atm.Trunc.K)
	}
	if len(tb.KMT) != tb.OcnGrid.Size() {
		return fmt.Errorf("core: shared KMT has %d cells, ocean grid has %d", len(tb.KMT), tb.OcnGrid.Size())
	}
	if tb.World != "" && tb.World != cfg.worldName() {
		return fmt.Errorf("core: shared tables were built for world %q, config wants %q", tb.World, cfg.worldName())
	}
	return nil
}
