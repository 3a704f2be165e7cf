// Package data provides the synthetic Earth that substitutes for the
// observational datasets FOAM consumed (real topography, the Matthews
// vegetation data, the Shea-Trenberth-Reynolds SST climatology, and
// hand-tuned river directions). Everything is deterministic and analytic:
// polygonal/elliptical continents with recognizable Atlantic, Pacific,
// Indian and Arctic basins; Gaussian-ridge orography; latitude-band soil
// types; and an Earth-like monthly SST climatology used as the "observed"
// reference in the Figure-3 experiment. See DESIGN.md section 2 for why
// these substitutions preserve the behaviours under test.
//
//foam:deterministic
package data

import (
	"math"

	"foam/internal/sphere"
)

// ellipse is a rotated elliptical landmass in degree coordinates.
type ellipse struct {
	lat, lon float64 // center, degrees
	a, b     float64 // semi-axes: a along rotated east, b along rotated north
	rot      float64 // rotation, degrees counterclockwise

	cosR, sinR float64 // cosine and sine of rot, set by rotate
}

// rotate evaluates the ellipse's rotation once, so contains does no trig.
func (e *ellipse) rotate() {
	r := e.rot * math.Pi / 180
	e.cosR, e.sinR = math.Cos(r), math.Sin(r)
}

// The package's ellipses are static tables; their rotations are filled in
// once, before any caller can reach contains.
func init() {
	for _, es := range [][]ellipse{continents, paleoContinents} {
		for i := range es {
			es[i].rotate()
		}
	}
	greenland.rotate()
}

// contains reports whether a point lies inside the ellipse, which must
// have been rotated.
func (e *ellipse) contains(latDeg, lonDeg float64) bool {
	dlon := wrapDeg(lonDeg - e.lon)
	dlat := latDeg - e.lat
	x := dlon*e.cosR + dlat*e.sinR
	y := -dlon*e.sinR + dlat*e.cosR
	return (x/e.a)*(x/e.a)+(y/e.b)*(y/e.b) <= 1
}

func wrapDeg(d float64) float64 {
	for d > 180 {
		d -= 360
	}
	for d < -180 {
		d += 360
	}
	return d
}

// The continental inventory. Shapes are chosen so the ocean basins the
// paper's experiments need — a North Atlantic and North Pacific separated
// by the Americas and Eurasia, an Indian Ocean, a mostly enclosed Arctic —
// are all present at R15 and 128x128 resolutions.
var continents = []ellipse{
	// North America.
	{lat: 48, lon: -100, a: 38, b: 22, rot: -12},
	{lat: 62, lon: -110, a: 30, b: 12, rot: 0},
	// Central America bridge.
	{lat: 20, lon: -95, a: 12, b: 7, rot: -35},
	{lat: 8, lon: -80, a: 6, b: 4, rot: -40},
	// South America.
	{lat: -12, lon: -60, a: 18, b: 22, rot: 10},
	{lat: -38, lon: -66, a: 8, b: 16, rot: 0},
	// Greenland.
	{lat: 72, lon: -40, a: 12, b: 10, rot: 0},
	// Eurasia.
	{lat: 52, lon: 40, a: 45, b: 20, rot: 0},
	{lat: 58, lon: 105, a: 48, b: 18, rot: 0},
	{lat: 30, lon: 80, a: 22, b: 12, rot: 0},  // South Asia
	{lat: 35, lon: 110, a: 18, b: 14, rot: 0}, // East Asia
	{lat: 42, lon: 5, a: 14, b: 8, rot: 0},    // Europe
	{lat: 22, lon: 45, a: 12, b: 9, rot: 20},  // Arabia
	// Southeast Asia peninsula.
	{lat: 12, lon: 102, a: 8, b: 8, rot: 0},
	// Africa.
	{lat: 12, lon: 15, a: 22, b: 16, rot: 0},
	{lat: -15, lon: 25, a: 14, b: 18, rot: 0},
	// Australia.
	{lat: -25, lon: 134, a: 17, b: 10, rot: 0},
	// Antarctica is handled separately by latitude.
}

// greenland is the ice-covered continent of SoilType.
var greenland = ellipse{lat: 72, lon: -40, a: 12, b: 10}

// IsLand reports whether the point (radians) is land.
func IsLand(lat, lon float64) bool {
	latD := lat * sphere.Rad2Deg
	lonD := wrapDeg(lon * sphere.Rad2Deg)
	if latD < -68 {
		return true // Antarctica
	}
	for i := range continents {
		if continents[i].contains(latD, lonD) {
			return true
		}
	}
	return false
}

// LandMask evaluates IsLand at each cell center of a grid.
func LandMask(g *sphere.Grid) []bool {
	return Earth().LandMask(g)
}

// ridge is a Gaussian mountain ridge.
type ridge struct {
	lat, lon   float64 // center, degrees
	amp        float64 // height, m
	sLat, sLon float64 // spreads, degrees
}

var ridges = []ridge{
	{lat: 42, lon: -112, amp: 2200, sLat: 14, sLon: 6}, // Rockies
	{lat: -20, lon: -69, amp: 3600, sLat: 18, sLon: 4}, // Andes
	{lat: 33, lon: 88, amp: 4600, sLat: 7, sLon: 16},   // Tibet/Himalaya
	{lat: 46, lon: 10, amp: 1400, sLat: 4, sLon: 7},    // Alps
	{lat: 72, lon: -40, amp: 2400, sLat: 8, sLon: 9},   // Greenland dome
	{lat: -83, lon: 0, amp: 2700, sLat: 14, sLon: 180}, // Antarctic dome
	{lat: 3, lon: 36, amp: 1300, sLat: 10, sLon: 7},    // East African highlands
	{lat: 62, lon: 130, amp: 900, sLat: 10, sLon: 18},  // East Siberian uplands
}

// Elevation returns the land surface height (m) at a point in radians;
// zero over ocean.
func Elevation(lat, lon float64) float64 {
	if !IsLand(lat, lon) {
		return 0
	}
	return heightOver(ridges, lat, lon)
}

// heightOver sums a ridge inventory over the continental base elevation.
func heightOver(rs []ridge, lat, lon float64) float64 {
	latD := lat * sphere.Rad2Deg
	lonD := wrapDeg(lon * sphere.Rad2Deg)
	h := 220.0 // continental base elevation
	for _, r := range rs {
		dlat := (latD - r.lat) / r.sLat
		dlon := wrapDeg(lonD-r.lon) / r.sLon
		h += r.amp * math.Exp(-(dlat*dlat + dlon*dlon))
	}
	return h
}

// Orography returns g*height (m^2/s^2) at each cell, zero over ocean —
// the field the atmosphere's SetOrography consumes.
func Orography(g *sphere.Grid) []float64 {
	return Earth().Orography(g)
}

// Soil types (paper: "5 distinct types derived from the vegetation data").
const (
	SoilIce = iota
	SoilTundra
	SoilDesert
	SoilGrass
	SoilForest
	NumSoilTypes
)

// SoilProperties holds the 4-layer land model parameters per type.
type SoilProperties struct {
	Albedo       float64
	Roughness    float64    // m
	Conductivity float64    // W/(m K)
	HeatCapacity float64    // J/(m^3 K)
	LayerDepth   [4]float64 // m
}

// Soils indexes properties by soil type.
var Soils = [NumSoilTypes]SoilProperties{
	SoilIce:    {Albedo: 0.70, Roughness: 0.001, Conductivity: 2.2, HeatCapacity: 1.9e6, LayerDepth: [4]float64{0.05, 0.2, 0.6, 2.0}},
	SoilTundra: {Albedo: 0.22, Roughness: 0.02, Conductivity: 1.5, HeatCapacity: 2.4e6, LayerDepth: [4]float64{0.05, 0.2, 0.6, 2.0}},
	SoilDesert: {Albedo: 0.32, Roughness: 0.01, Conductivity: 0.8, HeatCapacity: 1.3e6, LayerDepth: [4]float64{0.05, 0.2, 0.6, 2.0}},
	SoilGrass:  {Albedo: 0.20, Roughness: 0.05, Conductivity: 1.1, HeatCapacity: 2.0e6, LayerDepth: [4]float64{0.05, 0.2, 0.6, 2.0}},
	SoilForest: {Albedo: 0.13, Roughness: 0.8, Conductivity: 1.2, HeatCapacity: 2.2e6, LayerDepth: [4]float64{0.05, 0.2, 0.6, 2.0}},
}

// SoilType classifies a land point (radians). Ocean points return SoilGrass
// (unused).
func SoilType(lat, lon float64) int {
	latD := lat * sphere.Rad2Deg
	lonD := wrapDeg(lon * sphere.Rad2Deg)
	switch {
	case latD < -68:
		return SoilIce
	case greenland.contains(latD, lonD):
		return SoilIce // Greenland
	case math.Abs(latD) > 58:
		return SoilTundra
	case math.Abs(latD) > 15 && math.Abs(latD) < 32 &&
		(inRange(lonD, -15, 50) || inRange(lonD, 40, 75) || inRange(lonD, 115, 140) && latD < 0 ||
			inRange(lonD, -115, -100)):
		return SoilDesert // Sahara/Arabia/Australia/SW North America belts
	case math.Abs(latD) < 12 || math.Abs(latD) > 42:
		return SoilForest // rainforest and boreal belts
	default:
		return SoilGrass
	}
}

func inRange(x, lo, hi float64) bool { return x >= lo && x <= hi }

// SoilTypes evaluates SoilType over a grid (value meaningful only on land).
func SoilTypes(g *sphere.Grid) []int {
	return Earth().SoilTypes(g)
}

// OceanKMT builds the ocean bathymetry (active levels per cell) on the
// ocean grid: full depth in the open ocean, shoaling across a continental
// margin over a few cells, zero on land. The paper notes FOAM's topography
// is "somewhat tuned to preserve basin topology" — here topology comes from
// the analytic continents directly.
func OceanKMT(g *sphere.Grid, nlev int) []int {
	return Earth().OceanKMT(g, nlev)
}

// SSTClimatology is the analytic monthly "observed" sea surface temperature
// (deg C) standing in for the Shea-Trenberth-Reynolds climatology of the
// paper's Figure 3. month is 0-11; the 360-day calendar makes each month 30
// days. Structure: a zonal profile, an Indo-Pacific warm pool, an eastern
// equatorial Pacific cold tongue, poleward-warm western boundary currents,
// and a seasonally shifting thermal equator.
func SSTClimatology(lat, lon float64, month int) float64 {
	latD := lat * sphere.Rad2Deg
	lonD := wrapDeg(lon * sphere.Rad2Deg)
	// Seasonal shift of the thermal equator (+/- 6 degrees around July/Jan).
	phase := 2 * math.Pi * (float64(month) + 0.5) / 12
	shift := 6 * math.Cos(phase-math.Pi*7/6) // warmest shifted north mid-year
	eff := latD - shift
	t := 28.5*math.Exp(-(eff/32)*(eff/32)) - 1.5
	// Indo-Pacific warm pool.
	t += 2.0 * math.Exp(-sq((latD-2)/10)-sq(wrapDeg(lonD-140)/35))
	// Eastern equatorial Pacific cold tongue.
	t -= 3.0 * math.Exp(-sq(latD/4)-sq(wrapDeg(lonD+100)/25))
	// Western boundary warm tongues: Gulf Stream and Kuroshio.
	t += 2.5 * math.Exp(-sq((latD-38)/6)-sq(wrapDeg(lonD+65)/12))
	t += 2.0 * math.Exp(-sq((latD-36)/6)-sq(wrapDeg(lonD-150)/14))
	// Seasonal amplitude grows with latitude (hemisphere-dependent sign).
	t += 4 * math.Sin(lat) * math.Cos(phase-math.Pi*7/6) * math.Min(1, math.Abs(latD)/45)
	if t < -1.92 {
		t = -1.92
	}
	return t
}

func sq(x float64) float64 { return x * x }

// SSTClimatologyGrid evaluates the climatology over the ocean cells of a
// grid; land cells get 0.
func SSTClimatologyGrid(g *sphere.Grid, month int) []float64 {
	out := make([]float64, g.Size())
	for j := 0; j < g.NLat(); j++ {
		for i := 0; i < g.NLon(); i++ {
			if !IsLand(g.Lats[j], g.Lons[i]) {
				out[g.Index(j, i)] = SSTClimatology(g.Lats[j], g.Lons[i], month)
			}
		}
	}
	return out
}

// AnnualMeanSST averages the monthly climatology.
func AnnualMeanSST(g *sphere.Grid) []float64 {
	out := make([]float64, g.Size())
	for mth := 0; mth < 12; mth++ {
		f := SSTClimatologyGrid(g, mth)
		for c := range out {
			out[c] += f[c] / 12
		}
	}
	return out
}

// WindStressClimatology returns an analytic zonal wind stress profile
// (N/m^2) for standalone ocean experiments: easterly trades, mid-latitude
// westerlies, weak polar easterlies.
func WindStressClimatology(lat float64) float64 {
	return -0.08 * math.Cos(3*lat) * math.Exp(-sq(lat*sphere.Rad2Deg/75))
}
