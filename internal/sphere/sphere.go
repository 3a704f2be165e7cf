// Package sphere provides the spherical geometry shared by the FOAM
// components: Gaussian latitudes and quadrature weights for the spectral
// atmosphere, Mercator latitude spacing for the ocean grid, grid-box areas,
// and distance calculations.
package sphere

import (
	"fmt"
	"math"
)

// Physical constants shared across the model (SI units).
const (
	// Radius is the Earth's radius in metres.
	Radius = 6.371e6
	// Omega is the Earth's angular velocity in rad/s.
	Omega = 7.292e-5
	// Gravity is the surface gravitational acceleration in m/s^2.
	Gravity = 9.80616
	// SecondsPerDay is the length of a (model) day.
	SecondsPerDay = 86400.0
	// DaysPerYear is the length of the model year in days. FOAM-Go uses a
	// 360-day calendar of twelve 30-day months, a common climate-model
	// simplification.
	DaysPerYear = 360.0
)

// Deg2Rad and Rad2Deg convert between degrees and radians.
const (
	Deg2Rad = math.Pi / 180
	Rad2Deg = 180 / math.Pi
)

// GaussLegendre returns the n Gauss-Legendre nodes (ascending, in (-1,1))
// and weights for quadrature on [-1,1]. The nodes are the roots of the
// Legendre polynomial P_n; in atmospheric use the node x is sin(latitude).
func GaussLegendre(n int) (nodes, weights []float64) {
	if n < 1 {
		panic(fmt.Sprintf("sphere: GaussLegendre order %d must be >= 1", n))
	}
	nodes = make([]float64, n)
	weights = make([]float64, n)
	m := (n + 1) / 2
	for i := 0; i < m; i++ {
		// Initial guess (Abramowitz & Stegun 25.4.30 vicinity).
		x := math.Cos(math.Pi * (float64(i) + 0.75) / (float64(n) + 0.5))
		var pp float64
		for iter := 0; iter < 100; iter++ {
			p0, p1 := 1.0, 0.0
			for j := 0; j < n; j++ {
				p2 := p1
				p1 = p0
				p0 = ((2*float64(j)+1)*x*p1 - float64(j)*p2) / float64(j+1)
			}
			// Derivative from the standard relation.
			pp = float64(n) * (x*p0 - p1) / (x*x - 1)
			dx := p0 / pp
			x -= dx
			if math.Abs(dx) < 1e-15 {
				break
			}
		}
		nodes[i] = -x
		nodes[n-1-i] = x
		w := 2 / ((1 - x*x) * pp * pp)
		weights[i] = w
		weights[n-1-i] = w
	}
	return nodes, weights
}

// GaussianLatitudes returns the nlat Gaussian latitudes in radians
// (ascending from south to north) and the matching quadrature weights,
// which sum to 2.
func GaussianLatitudes(nlat int) (lats, weights []float64) {
	nodes, w := GaussLegendre(nlat)
	lats = make([]float64, nlat)
	for i, mu := range nodes {
		lats[i] = math.Asin(mu)
	}
	return lats, w
}

// MercatorLatitudes returns nlat latitudes (radians, ascending) uniformly
// spaced in the Mercator coordinate y = ln(tan(pi/4 + phi/2)) between
// latSouth and latNorth (radians). Spacing in latitude is then proportional
// to cos(latitude), keeping grid boxes near-isotropic — the ocean grid of
// the paper ("simple, unstaggered Mercator 128 x 128 point grid").
func MercatorLatitudes(nlat int, latSouth, latNorth float64) []float64 {
	if nlat < 2 {
		panic("sphere: MercatorLatitudes needs nlat >= 2")
	}
	if latSouth >= latNorth {
		panic("sphere: MercatorLatitudes needs latSouth < latNorth")
	}
	y0 := mercY(latSouth)
	y1 := mercY(latNorth)
	lats := make([]float64, nlat)
	for i := 0; i < nlat; i++ {
		y := y0 + (y1-y0)*float64(i)/float64(nlat-1)
		lats[i] = 2*math.Atan(math.Exp(y)) - math.Pi/2
	}
	return lats
}

func mercY(phi float64) float64 { return math.Log(math.Tan(math.Pi/4 + phi/2)) }

// UniformLongitudes returns nlon longitudes in radians starting at 0,
// spaced 2*pi/nlon apart (cell centers of a periodic grid).
func UniformLongitudes(nlon int) []float64 {
	lons := make([]float64, nlon)
	for i := range lons {
		lons[i] = 2 * math.Pi * float64(i) / float64(nlon)
	}
	return lons
}

// Grid is a latitude-longitude grid. Latitudes ascend south to north;
// longitudes ascend eastward from 0. Cell (j,i) is centered at
// (Lats[j], Lons[i]); LatEdges/LonEdges give the nlat+1 / nlon+1 box
// boundaries used for areas and overlap construction. A Grid is read-only
// once built and shared by every model on it.
type Grid struct {
	Lats, Lons         []float64 // cell centers, radians
	LatEdges, LonEdges []float64 // cell edges, radians
	area               []float64 // per-cell area, m^2, row-major [j*nlon+i]
}

// NewGrid builds a grid from cell-center latitudes and longitudes. Latitude
// edges are midpoints clamped to the poles; longitude edges are midpoints of
// the periodic longitudes.
func NewGrid(lats, lons []float64) *Grid {
	nlat, nlon := len(lats), len(lons)
	if nlat < 1 || nlon < 1 {
		panic("sphere: empty grid")
	}
	g := &Grid{Lats: append([]float64(nil), lats...), Lons: append([]float64(nil), lons...)}
	g.LatEdges = make([]float64, nlat+1)
	g.LatEdges[0] = -math.Pi / 2
	g.LatEdges[nlat] = math.Pi / 2
	for j := 1; j < nlat; j++ {
		g.LatEdges[j] = 0.5 * (lats[j-1] + lats[j])
	}
	g.LonEdges = make([]float64, nlon+1)
	dlon := 2 * math.Pi / float64(nlon)
	for i := 0; i <= nlon; i++ {
		g.LonEdges[i] = lons[0] - dlon/2 + dlon*float64(i)
	}
	g.area = make([]float64, nlat*nlon)
	for j := 0; j < nlat; j++ {
		band := Radius * Radius * dlon * (math.Sin(g.LatEdges[j+1]) - math.Sin(g.LatEdges[j]))
		for i := 0; i < nlon; i++ {
			g.area[j*nlon+i] = band
		}
	}
	return g
}

// NewGaussianGrid builds the atmosphere grid: nlat Gaussian latitudes and
// nlon uniform longitudes.
func NewGaussianGrid(nlat, nlon int) *Grid {
	lats, _ := GaussianLatitudes(nlat)
	return NewGrid(lats, UniformLongitudes(nlon))
}

// NewMercatorGrid builds the ocean grid: nlat Mercator-spaced latitudes
// between latSouth and latNorth (degrees) and nlon uniform longitudes.
func NewMercatorGrid(nlat, nlon int, latSouthDeg, latNorthDeg float64) *Grid {
	lats := MercatorLatitudes(nlat, latSouthDeg*Deg2Rad, latNorthDeg*Deg2Rad)
	return NewGrid(lats, UniformLongitudes(nlon))
}

// NLat and NLon return the grid dimensions.
func (g *Grid) NLat() int { return len(g.Lats) }
func (g *Grid) NLon() int { return len(g.Lons) }

// Size returns the number of cells.
func (g *Grid) Size() int { return len(g.Lats) * len(g.Lons) }

// Index returns the row-major cell index of (j,i).
func (g *Grid) Index(j, i int) int { return j*len(g.Lons) + i }

// Area returns the area of cell (j,i) in m^2.
func (g *Grid) Area(j, i int) float64 { return g.area[g.Index(j, i)] }

// TotalArea returns the summed cell area, m^2. For a grid whose latitude edges
// span pole to pole this equals the area of the sphere.
func (g *Grid) TotalArea() float64 {
	tot := 0.0
	for _, a := range g.area {
		tot += a
	}
	return tot
}

// AreaMean returns the area-weighted mean of a row-major field on the grid.
func (g *Grid) AreaMean(field []float64) float64 {
	if len(field) != g.Size() {
		panic("sphere: AreaMean field size mismatch")
	}
	num, den := 0.0, 0.0
	for k, v := range field {
		num += v * g.area[k]
		den += g.area[k]
	}
	return num / den
}

// AreaMeanMasked returns the area-weighted mean over cells where mask is
// true. It returns 0 when the mask is empty.
func (g *Grid) AreaMeanMasked(field []float64, mask []bool) float64 {
	if len(field) != g.Size() || len(mask) != g.Size() {
		panic("sphere: AreaMeanMasked size mismatch")
	}
	num, den := 0.0, 0.0
	for k, v := range field {
		if mask[k] {
			num += v * g.area[k]
			den += g.area[k]
		}
	}
	if den <= 0 {
		return 0
	}
	return num / den
}

// GreatCircle returns the great-circle distance in metres between two
// points given in radians.
func GreatCircle(lat1, lon1, lat2, lon2 float64) float64 {
	s1 := math.Sin((lat2 - lat1) / 2)
	s2 := math.Sin((lon2 - lon1) / 2)
	h := s1*s1 + math.Cos(lat1)*math.Cos(lat2)*s2*s2
	return 2 * Radius * math.Asin(math.Min(1, math.Sqrt(h)))
}

// Coriolis returns the Coriolis parameter f = 2*Omega*sin(lat) at a
// latitude in radians.
func Coriolis(lat float64) float64 { return 2 * Omega * math.Sin(lat) }

// WrapLon normalizes a longitude in radians to [0, 2*pi).
func WrapLon(lon float64) float64 {
	lon = math.Mod(lon, 2*math.Pi)
	if lon < 0 {
		lon += 2 * math.Pi
	}
	return lon
}
