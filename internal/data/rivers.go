package data

import (
	"math"

	"foam/internal/sphere"
)

// Neighbour offsets for river routing (8-connected), indexed 0-7.
var NeighbourOffsets = [8][2]int{
	{-1, -1}, {-1, 0}, {-1, 1},
	{0, -1}, {0, 1},
	{1, -1}, {1, 0}, {1, 1},
}

// Direction codes besides 0-7.
const (
	DirOcean = -2 // cell is ocean
	DirMouth = -1 // land cell draining directly into an adjacent ocean cell
)

// RiverNetwork holds flow directions and downstream distances on a grid.
// It is read-only once built and shared by every model on the grid.
type RiverNetwork struct {
	Grid *sphere.Grid
	// Dir[c] is a neighbour index 0-7, or DirMouth/DirOcean. For DirMouth
	// cells, MouthOcean[c] is the ocean cell index receiving the outflow.
	Dir        []int
	Dist       []float64 // downstream distance, m (0 for ocean cells)
	MouthOcean []int     // receiving ocean cell for mouths, else -1
}

// BuildRivers derives river flow directions from the synthetic topography
// by steepest descent, with iterative pit-filling so every land cell drains
// to the ocean. The paper set many directions by hand to match observed
// basins; pit-filling plays that role here.
func BuildRivers(g *sphere.Grid) *RiverNetwork {
	return Earth().BuildRivers(g)
}

// buildRiversFrom runs the pit-filling steepest-descent routing over an
// arbitrary land mask and elevation function (one World's boundary set).
func buildRiversFrom(g *sphere.Grid, land []bool, elevAt func(lat, lon float64) float64) *RiverNetwork {
	nlat, nlon := g.NLat(), g.NLon()
	n := g.Size()
	elev := make([]float64, n)
	for j := 0; j < nlat; j++ {
		for i := 0; i < nlon; i++ {
			c := g.Index(j, i)
			if land[c] {
				elev[c] = elevAt(g.Lats[j], g.Lons[i])
			} else {
				elev[c] = -100 // ocean is always downhill
			}
		}
	}
	// Pit filling: raise any landlocked local minimum just above its lowest
	// neighbour until all land drains.
	for pass := 0; pass < 4*n; pass++ {
		changed := false
		for j := 0; j < nlat; j++ {
			for i := 0; i < nlon; i++ {
				c := g.Index(j, i)
				if !land[c] {
					continue
				}
				low := math.Inf(1)
				for _, off := range NeighbourOffsets {
					jj := j + off[0]
					if jj < 0 || jj >= nlat {
						continue
					}
					ii := (i + off[1] + nlon) % nlon
					cc := g.Index(jj, ii)
					if elev[cc] < low {
						low = elev[cc]
					}
				}
				if low >= elev[c] {
					elev[c] = low + 0.5
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}

	rn := &RiverNetwork{Grid: g,
		Dir:        make([]int, n),
		Dist:       make([]float64, n),
		MouthOcean: make([]int, n),
	}
	for c := range rn.MouthOcean {
		rn.MouthOcean[c] = -1
	}
	for j := 0; j < nlat; j++ {
		for i := 0; i < nlon; i++ {
			c := g.Index(j, i)
			if !land[c] {
				rn.Dir[c] = DirOcean
				continue
			}
			best := -1
			bestDrop := 0.0
			bestDist := 1.0
			for k, off := range NeighbourOffsets {
				jj := j + off[0]
				if jj < 0 || jj >= nlat {
					continue
				}
				ii := (i + off[1] + nlon) % nlon
				cc := g.Index(jj, ii)
				d := sphere.GreatCircle(g.Lats[j], g.Lons[i], g.Lats[jj], g.Lons[ii])
				drop := (elev[c] - elev[cc]) / d
				if drop > bestDrop {
					bestDrop = drop
					best = k
					bestDist = d
				}
			}
			if best < 0 {
				// Should not happen after pit filling, but keep the water:
				// treat the cell as an internal mouth into the nearest
				// ocean cell.
				rn.Dir[c] = DirMouth
				rn.Dist[c] = 1e5
				rn.MouthOcean[c] = nearestOcean(g, land, j, i)
				continue
			}
			off := NeighbourOffsets[best]
			cc := g.Index(j+off[0], (i+off[1]+nlon)%nlon)
			rn.Dist[c] = bestDist
			if land[cc] {
				rn.Dir[c] = best
			} else {
				rn.Dir[c] = DirMouth
				rn.MouthOcean[c] = cc
			}
		}
	}
	return rn
}

// nearestOcean scans outward for the closest ocean cell.
func nearestOcean(g *sphere.Grid, land []bool, j, i int) int {
	nlat, nlon := g.NLat(), g.NLon()
	for r := 1; r < nlat; r++ {
		bestD := math.Inf(1)
		best := -1
		for dj := -r; dj <= r; dj++ {
			jj := j + dj
			if jj < 0 || jj >= nlat {
				continue
			}
			for di := -r; di <= r; di++ {
				if absInt(dj) != r && absInt(di) != r {
					continue
				}
				ii := (i + di + nlon) % nlon
				cc := g.Index(jj, ii)
				if !land[cc] {
					d := sphere.GreatCircle(g.Lats[j], g.Lons[i], g.Lats[jj], g.Lons[ii])
					if d < bestD {
						bestD = d
						best = cc
					}
				}
			}
		}
		if best >= 0 {
			return best
		}
	}
	return -1
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Downstream returns the cell index the given land cell flows into (land or
// ocean), or -1 for ocean/unroutable cells.
func (rn *RiverNetwork) Downstream(c int) int {
	g := rn.Grid
	switch rn.Dir[c] {
	case DirOcean:
		return -1
	case DirMouth:
		return rn.MouthOcean[c]
	default:
		off := NeighbourOffsets[rn.Dir[c]]
		j := c / g.NLon()
		i := c % g.NLon()
		return g.Index(j+off[0], (i+off[1]+g.NLon())%g.NLon())
	}
}
