package data

import (
	"fmt"
	"math"
	"sort"

	"foam/internal/sphere"
)

// World bundles one planetary boundary-condition set: the land/ocean mask,
// the land surface height, and the soil classification. Every grid-level
// product the model consumes — land masks, orography, soil types, ocean
// bathymetry, river routing — derives from these three point functions, so
// a scenario switches worlds by switching one value. The Earth world
// reproduces the package-level functions bit-for-bit; the alternates
// (aquaplanet, ice-world, paleo) are the idealized rungs of the model
// hierarchy the scenario registry exposes.
//
// A World is immutable after construction and safe to share.
type World struct {
	Name        string
	Description string

	isLand func(lat, lon float64) bool    // radians
	height func(lat, lon float64) float64 // m, queried only over land
	soil   func(lat, lon float64) int     // soil class, queried only over land
}

// IsLand reports whether the point (radians) is land in this world.
func (w *World) IsLand(lat, lon float64) bool { return w.isLand(lat, lon) }

// Elevation returns the land surface height (m) at a point in radians;
// zero over ocean.
func (w *World) Elevation(lat, lon float64) float64 {
	if !w.isLand(lat, lon) {
		return 0
	}
	return w.height(lat, lon)
}

// SoilType classifies a land point (radians).
func (w *World) SoilType(lat, lon float64) int { return w.soil(lat, lon) }

// LandMask evaluates IsLand at each cell center of a grid.
func (w *World) LandMask(g *sphere.Grid) []bool {
	mask := make([]bool, g.Size())
	for j := 0; j < g.NLat(); j++ {
		for i := 0; i < g.NLon(); i++ {
			mask[g.Index(j, i)] = w.isLand(g.Lats[j], g.Lons[i])
		}
	}
	return mask
}

// SoilTypes evaluates SoilType over a grid (value meaningful only on land).
func (w *World) SoilTypes(g *sphere.Grid) []int {
	s := make([]int, g.Size())
	for j := 0; j < g.NLat(); j++ {
		for i := 0; i < g.NLon(); i++ {
			s[g.Index(j, i)] = w.soil(g.Lats[j], g.Lons[i])
		}
	}
	return s
}

// Orography returns g*height (m^2/s^2) at each cell, zero over ocean —
// the field the atmosphere's SetOrography consumes.
func (w *World) Orography(g *sphere.Grid) []float64 {
	o := make([]float64, g.Size())
	for j := 0; j < g.NLat(); j++ {
		for i := 0; i < g.NLon(); i++ {
			o[g.Index(j, i)] = sphere.Gravity * w.Elevation(g.Lats[j], g.Lons[i])
		}
	}
	return o
}

// OceanKMT builds the ocean bathymetry (active levels per cell) on the
// ocean grid: full depth in the open ocean, shoaling across a continental
// margin over a few cells, zero on land. The land mask is evaluated once
// per cell; the neighbour search reads it.
func (w *World) OceanKMT(g *sphere.Grid, nlev int) []int {
	land := w.LandMask(g)
	kmt := make([]int, g.Size())
	for j := 0; j < g.NLat(); j++ {
		for i := 0; i < g.NLon(); i++ {
			c := g.Index(j, i)
			if land[c] {
				kmt[c] = 0
				continue
			}
			// Distance to the nearest land among the 8 neighbours decides
			// shelf shoaling.
			minD := math.Inf(1)
			for dj := -1; dj <= 1; dj++ {
				for di := -1; di <= 1; di++ {
					jj := j + dj
					if jj < 0 || jj >= g.NLat() {
						continue
					}
					ii := (i + di + g.NLon()) % g.NLon()
					if land[g.Index(jj, ii)] {
						d := sphere.GreatCircle(g.Lats[j], g.Lons[i], g.Lats[jj], g.Lons[ii])
						if d < minD {
							minD = d
						}
					}
				}
			}
			switch {
			case minD < 2.0e5:
				kmt[c] = nlev * 2 / 3 // shelf/slope
			default:
				kmt[c] = nlev
			}
			if kmt[c] < 2 {
				kmt[c] = 2
			}
		}
	}
	return kmt
}

// BuildRivers derives this world's river network on a grid (see
// buildRiversFrom for the pit-filling steepest-descent routing).
func (w *World) BuildRivers(g *sphere.Grid) *RiverNetwork {
	return buildRiversFrom(g, w.LandMask(g), w.Elevation)
}

// The supercontinent inventory of the paleo world: one Pangaea-like mass
// straddling the equator with two satellite fragments, plus the polar cap
// shared with Earth. Longitudes cluster so a single superocean remains.
var paleoContinents = []ellipse{
	{lat: 8, lon: 20, a: 52, b: 34, rot: 12},   // central supercontinent
	{lat: -44, lon: 48, a: 20, b: 13, rot: -8}, // southern fragment
	{lat: 54, lon: -12, a: 24, b: 12, rot: 6},  // northern arm
}

var paleoRidges = []ridge{
	{lat: 10, lon: 16, amp: 3400, sLat: 10, sLon: 8},   // central cordillera
	{lat: 48, lon: -10, amp: 1600, sLat: 7, sLon: 9},   // northern range
	{lat: -83, lon: 0, amp: 2700, sLat: 14, sLon: 180}, // polar dome
}

func paleoIsLand(lat, lon float64) bool {
	latD := lat * sphere.Rad2Deg
	lonD := wrapDeg(lon * sphere.Rad2Deg)
	if latD < -68 {
		return true // polar cap continent, as on Earth
	}
	for i := range paleoContinents {
		if paleoContinents[i].contains(latD, lonD) {
			return true
		}
	}
	return false
}

// paleoSoil is the latitude-band classification without Earth's
// longitude-specific deserts: ice caps, tundra, a subtropical desert belt,
// rainforest/boreal belts, grass in between.
func paleoSoil(lat, lon float64) int {
	latD := lat * sphere.Rad2Deg
	switch {
	case latD < -68:
		return SoilIce
	case math.Abs(latD) > 58:
		return SoilTundra
	case math.Abs(latD) > 15 && math.Abs(latD) < 32:
		return SoilDesert
	case math.Abs(latD) < 12 || math.Abs(latD) > 42:
		return SoilForest
	default:
		return SoilGrass
	}
}

var (
	earthWorld = &World{
		Name:        "earth",
		Description: "synthetic Earth: real continents, orography, vegetation-derived soils",
		isLand:      IsLand,
		height:      func(lat, lon float64) float64 { return heightOver(ridges, lat, lon) },
		soil:        SoilType,
	}
	aquaWorld = &World{
		Name:        "aquaplanet",
		Description: "no land anywhere; polar caps beyond the ocean grid become ice by the coupler's fallback",
		isLand:      func(lat, lon float64) bool { return false },
		height:      func(lat, lon float64) float64 { return 0 },
		soil:        func(lat, lon float64) int { return SoilGrass },
	}
	iceWorld = &World{
		Name:        "ice-world",
		Description: "Earth's continents and orography under glacial albedo: every land cell is ice",
		isLand:      IsLand,
		height:      func(lat, lon float64) float64 { return heightOver(ridges, lat, lon) },
		soil:        func(lat, lon float64) int { return SoilIce },
	}
	paleoWorld = &World{
		Name:        "paleo",
		Description: "Pangaea-like supercontinent with a single superocean and zonal soil bands",
		isLand:      paleoIsLand,
		height:      func(lat, lon float64) float64 { return heightOver(paleoRidges, lat, lon) },
		soil:        paleoSoil,
	}
	worldsByName = map[string]*World{
		earthWorld.Name: earthWorld,
		aquaWorld.Name:  aquaWorld,
		iceWorld.Name:   iceWorld,
		paleoWorld.Name: paleoWorld,
	}
)

// Earth is the default world; the package-level mask/orography/soil/KMT
// functions are its methods.
func Earth() *World { return earthWorld }

// WorldByName resolves a world by registry name; the empty string means
// Earth.
func WorldByName(name string) (*World, error) {
	if name == "" {
		return earthWorld, nil
	}
	w, ok := worldsByName[name]
	if !ok {
		return nil, fmt.Errorf("data: unknown world %q (have %v)", name, WorldNames())
	}
	return w, nil
}

// WorldNames lists the registered worlds in sorted order.
func WorldNames() []string {
	names := make([]string, 0, len(worldsByName))
	//foam:allow nondeterminism the collected keys are sorted before return, so the result is order-independent
	for n := range worldsByName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
