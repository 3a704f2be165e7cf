// Package coupler implements the FOAM coupler: the model of the land
// surface and atmosphere-ocean interface that computes all surface fluxes,
// organizes the exchange between the component models, and routes
// continental runoff through the river model to close the hydrological
// cycle (paper Section 4.3).
//
// Fluxes between the two grids use the paper's overlap-grid construction
// (Figure 1): the atmosphere and ocean grids are overlaid, every
// intersection rectangle is a flux cell computed once from both sides'
// states, and the results are area-averaged back to each grid. No state
// variable is ever interpolated to a single grid, and the exchange is
// conservative by construction.
package coupler

import (
	"math"
	"sort"

	"foam/internal/sphere"
)

// OverlapCell is one rectangle of the overlap decomposition.
type OverlapCell struct {
	Atm  int     // atmosphere cell index
	Ocn  int     // ocean cell index, or -1 outside the ocean grid
	Area float64 // m^2
}

// Overlap is the full overlap decomposition plus the per-cell area sums
// needed for averaging. It is read-only once built and shared by every
// model on the grid pair.
type Overlap struct {
	Cells   []OverlapCell
	AtmArea []float64 // total overlap area per atm cell (ocean-covered part)
	OcnArea []float64 // total overlap area per ocn cell
	atmGrid *sphere.Grid
	ocnGrid *sphere.Grid

	// ocnPiece lists the indices into Cells of every piece of each ocean
	// cell, in ascending order; ocean cell c owns
	// ocnPiece[ocnStart[c]:ocnStart[c+1]].
	ocnStart, ocnPiece []int32
}

// BuildOverlap constructs the overlap decomposition of two lat-lon grids.
// Latitude bands outside the ocean grid produce cells with Ocn = -1.
func BuildOverlap(atm, ocn *sphere.Grid) *Overlap {
	ov := &Overlap{
		AtmArea: make([]float64, atm.Size()),
		OcnArea: make([]float64, ocn.Size()),
		atmGrid: atm, ocnGrid: ocn,
	}
	// Merged latitude breakpoints.
	lats := mergeBreaks(atm.LatEdges, ocn.LatEdges, false)
	// Merged longitude breakpoints on [0, 2*pi).
	lons := mergeBreaks(normalizeLons(atm.LonEdges), normalizeLons(ocn.LonEdges), true)

	for bi := 0; bi+1 < len(lats); bi++ {
		lat0, lat1 := lats[bi], lats[bi+1]
		if lat1-lat0 < 1e-12 {
			continue
		}
		latMid := 0.5 * (lat0 + lat1)
		ja := findBand(atm.LatEdges, latMid)
		if ja < 0 {
			continue
		}
		jo := findBand(ocn.LatEdges, latMid)
		band := sphere.Radius * sphere.Radius * (math.Sin(lat1) - math.Sin(lat0))
		for li := 0; li+1 < len(lons); li++ {
			lon0, lon1 := lons[li], lons[li+1]
			width := lon1 - lon0
			if width < 1e-12 {
				continue
			}
			lonMid := 0.5 * (lon0 + lon1)
			ia := findLonBand(atm.LonEdges, lonMid)
			if ia < 0 {
				continue
			}
			cell := OverlapCell{Atm: atm.Index(ja, ia), Ocn: -1, Area: band * width}
			if jo >= 0 {
				io := findLonBand(ocn.LonEdges, lonMid)
				if io >= 0 {
					cell.Ocn = ocn.Index(jo, io)
				}
			}
			if cell.Ocn >= 0 {
				ov.AtmArea[cell.Atm] += cell.Area
				ov.OcnArea[cell.Ocn] += cell.Area
			}
			ov.Cells = append(ov.Cells, cell)
		}
	}
	ov.indexOcnPieces()
	return ov
}

// indexOcnPieces builds the per-ocean-cell piece lists.
func (ov *Overlap) indexOcnPieces() {
	ov.ocnStart = make([]int32, ov.ocnGrid.Size()+1)
	for _, cell := range ov.Cells {
		if cell.Ocn >= 0 {
			ov.ocnStart[cell.Ocn+1]++
		}
	}
	for c := 1; c < len(ov.ocnStart); c++ {
		ov.ocnStart[c] += ov.ocnStart[c-1]
	}
	ov.ocnPiece = make([]int32, ov.ocnStart[len(ov.ocnStart)-1])
	next := append([]int32(nil), ov.ocnStart[:len(ov.ocnStart)-1]...)
	for pi, cell := range ov.Cells {
		if cell.Ocn >= 0 {
			ov.ocnPiece[next[cell.Ocn]] = int32(pi)
			next[cell.Ocn]++
		}
	}
}

// ocnPieces returns the indices into Cells of ocean cell c's overlap
// pieces, in ascending order: the order AtmToOcnInto sums them in. The
// slice is shared; callers must not write to it.
func (ov *Overlap) ocnPieces(c int) []int32 {
	return ov.ocnPiece[ov.ocnStart[c]:ov.ocnStart[c+1]]
}

// mergeBreaks merges two ascending breakpoint sets, deduplicating. For
// longitudes (periodic=true) the values must already be normalized to
// [0, 2*pi) and 0 and 2*pi are added as breakpoints.
func mergeBreaks(a, b []float64, periodic bool) []float64 {
	out := make([]float64, 0, len(a)+len(b)+2)
	out = append(out, a...)
	out = append(out, b...)
	if periodic {
		out = append(out, 0, 2*math.Pi)
	}
	sort.Float64s(out)
	ded := out[:0]
	for i, v := range out {
		if i == 0 || v-ded[len(ded)-1] > 1e-12 {
			ded = append(ded, v)
		}
	}
	return ded
}

// normalizeLons maps longitude edges into [0, 2*pi) as breakpoints.
func normalizeLons(edges []float64) []float64 {
	out := make([]float64, 0, len(edges))
	for _, e := range edges {
		out = append(out, sphere.WrapLon(e))
	}
	return out
}

// findBand locates the interval [edges[k], edges[k+1]) containing x, or -1.
func findBand(edges []float64, x float64) int {
	if x < edges[0] || x >= edges[len(edges)-1] {
		return -1
	}
	k := sort.SearchFloat64s(edges, x) - 1
	if k < 0 {
		k = 0
	}
	return k
}

// findLonBand locates the (periodic) longitude band containing x in
// [0, 2*pi).
func findLonBand(edges []float64, x float64) int {
	n := len(edges) - 1 // number of cells
	first := edges[0]
	rel := sphere.WrapLon(x - first)
	width := 2 * math.Pi / float64(n)
	k := int(rel / width)
	if k >= n {
		k = n - 1
	}
	return k
}

// AtmToOcn conservatively remaps an atmosphere-grid flux field (per unit
// area) to the ocean grid: each ocean cell receives the overlap-area-
// weighted average of the contributing atmosphere values.
func (ov *Overlap) AtmToOcn(field []float64) []float64 {
	out := make([]float64, ov.ocnGrid.Size())
	ov.AtmToOcnInto(out, field)
	return out
}

// AtmToOcnInto writes the remap into dst, which must not share storage
// with field: dst is zeroed before field is read.
func (ov *Overlap) AtmToOcnInto(dst, field []float64) {
	if len(dst) > 0 && len(field) > 0 && &dst[0] == &field[0] {
		panic("coupler: AtmToOcnInto dst and field must not alias")
	}
	for c := range dst {
		dst[c] = 0
	}
	for _, cell := range ov.Cells {
		if cell.Ocn < 0 || ov.OcnArea[cell.Ocn] <= 0 {
			continue
		}
		dst[cell.Ocn] += field[cell.Atm] * cell.Area / ov.OcnArea[cell.Ocn]
	}
}

// OcnToAtm conservatively remaps an ocean-grid field to the atmosphere
// grid, averaging over the ocean-covered part of each atmosphere cell.
// Atmosphere cells with no ocean overlap get 0.
func (ov *Overlap) OcnToAtm(field []float64) []float64 {
	out := make([]float64, ov.atmGrid.Size())
	for _, cell := range ov.Cells {
		if cell.Ocn < 0 || ov.AtmArea[cell.Atm] <= 0 {
			continue
		}
		out[cell.Atm] += field[cell.Ocn] * cell.Area / ov.AtmArea[cell.Atm]
	}
	return out
}

// OceanFraction returns, per atmosphere cell, the fraction of its area
// overlapped by wet ocean cells (mask: 1 = wet).
func (ov *Overlap) OceanFraction(ocnMask []float64) []float64 {
	out := make([]float64, ov.atmGrid.Size())
	for _, cell := range ov.Cells {
		if cell.Ocn < 0 {
			continue
		}
		if ocnMask[cell.Ocn] > 0 {
			out[cell.Atm] += cell.Area
		}
	}
	g := ov.atmGrid
	for j := 0; j < g.NLat(); j++ {
		for i := 0; i < g.NLon(); i++ {
			c := g.Index(j, i)
			out[c] /= g.Area(j, i)
			if out[c] > 1 {
				out[c] = 1
			}
		}
	}
	return out
}
