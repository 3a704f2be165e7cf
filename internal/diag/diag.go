// Package diag renders FOAM-Go diagnostics: the per-processor time
// allocation chart of the paper's Figure 2 (as ASCII), latitude-longitude
// field maps (Figures 3 and 4) as ASCII contour plots or PGM images, and
// CSV tables for the benchmark harness.
package diag

import (
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"

	"foam/internal/mp"
	"foam/internal/sphere"
)

// GanttSymbols maps trace labels to the single characters used in the
// ASCII Figure-2 chart. The paper's colors: green = atmosphere, red =
// coupler, blue = ocean, purple = idle.
var GanttSymbols = map[string]byte{
	"atmosphere": 'A',
	"coupler":    'C',
	"ocean":      'O',
	"idle":       '.',
}

// Gantt renders the per-rank virtual timelines as an ASCII chart of the
// given width. Each row is one rank; each column a time slice labelled by
// the activity occupying most of it.
func Gantt(w io.Writer, mach *mp.Machine, width int) {
	tEnd := mach.MaxClock()
	if tEnd <= 0 || width < 10 {
		fmt.Fprintln(w, "(empty trace)")
		return
	}
	fmt.Fprintf(w, "Time allocation per rank (total %.3f s simulated-machine time)\n", tEnd)
	fmt.Fprintf(w, "  legend: A=atmosphere C=coupler O=ocean .=idle\n")
	row := make([]byte, width)
	for r := 0; r < mach.Ranks(); r++ {
		for i := range row {
			row[i] = ' '
		}
		for _, seg := range mach.Segments(r) {
			sym, ok := GanttSymbols[seg.Label]
			if !ok {
				sym = '?'
			}
			i0 := int(seg.Start / tEnd * float64(width))
			i1 := int(seg.End / tEnd * float64(width))
			if i1 >= width {
				i1 = width - 1
			}
			for i := i0; i <= i1 && i < width; i++ {
				row[i] = sym
			}
		}
		fmt.Fprintf(w, "rank %2d |%s|\n", r, string(row))
	}
}

// SegmentTotal is the virtual time spent on one activity label, summed
// over every rank.
type SegmentTotal struct {
	Label   string
	Seconds float64
}

// SegmentTotals sums virtual time per label across all ranks and returns
// the totals in label order. Each label's sum runs over the ranks in order
// and over each rank's segments in time order, and no map is involved, so
// every quantity accumulated over the result is deterministic.
func SegmentTotals(mach *mp.Machine) []SegmentTotal {
	var tot []SegmentTotal
	for r := 0; r < mach.Ranks(); r++ {
		for _, s := range mach.Segments(r) {
			i, found := slices.BinarySearchFunc(tot, s.Label, func(t SegmentTotal, label string) int {
				return strings.Compare(t.Label, label)
			})
			if !found {
				tot = slices.Insert(tot, i, SegmentTotal{Label: s.Label})
			}
			tot[i].Seconds += s.End - s.Start
		}
	}
	return tot
}

// PrintSegmentTable writes per-label totals and fractions, in label order.
func PrintSegmentTable(w io.Writer, mach *mp.Machine) {
	tot := SegmentTotals(mach)
	sum := 0.0
	for _, t := range tot {
		sum += t.Seconds
	}
	fmt.Fprintf(w, "%-12s %12s %8s\n", "activity", "rank-seconds", "share")
	for _, t := range tot {
		fmt.Fprintf(w, "%-12s %12.4f %7.1f%%\n", t.Label, t.Seconds, 100*t.Seconds/sum)
	}
}

// shades orders characters from low to high for ASCII maps.
const shades = " .:-=+*#%@"

// AsciiMap renders a row-major field on a grid as an ASCII map (north at
// the top), masking cells where mask is false (printed as spaces when a
// mask is given). Rows/columns are subsampled to fit width.
func AsciiMap(w io.Writer, g *sphere.Grid, field []float64, mask []bool, width int, title string) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for c, v := range field {
		if mask != nil && !mask[c] {
			continue
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if lo >= hi {
		hi = lo + 1
	}
	fmt.Fprintf(w, "%s  [%.2f .. %.2f]\n", title, lo, hi)
	nlat, nlon := g.NLat(), g.NLon()
	if width > nlon {
		width = nlon
	}
	height := width * nlat / nlon / 2 // terminal cells are ~2:1
	if height < 8 {
		height = min(nlat, 8)
	}
	for r := 0; r < height; r++ {
		j := (height - 1 - r) * (nlat - 1) / max(height-1, 1) // north on top
		var sb strings.Builder
		for x := 0; x < width; x++ {
			i := x * (nlon - 1) / max(width-1, 1)
			c := g.Index(j, i)
			if mask != nil && !mask[c] {
				sb.WriteByte(' ')
				continue
			}
			f := (field[c] - lo) / (hi - lo)
			idx := int(f * float64(len(shades)-1))
			if idx < 0 {
				idx = 0
			}
			if idx >= len(shades) {
				idx = len(shades) - 1
			}
			sb.WriteByte(shades[idx])
		}
		fmt.Fprintf(w, "|%s|\n", sb.String())
	}
}

// CSVTable writes rows of named columns as CSV.
func CSVTable(w io.Writer, header []string, rows [][]float64) {
	fmt.Fprintln(w, strings.Join(header, ","))
	for _, r := range rows {
		parts := make([]string, len(r))
		for i, v := range r {
			parts[i] = fmt.Sprintf("%g", v)
		}
		fmt.Fprintln(w, strings.Join(parts, ","))
	}
}

// WritePGM renders a field as a binary PGM image (portable graymap), north
// at the top, masked cells black. A lightweight way to produce the actual
// Figure-3 style images without image dependencies.
func WritePGM(w io.Writer, g *sphere.Grid, field []float64, mask []bool) error {
	nlat, nlon := g.NLat(), g.NLon()
	lo, hi := math.Inf(1), math.Inf(-1)
	for c, v := range field {
		if mask != nil && !mask[c] {
			continue
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if lo >= hi {
		hi = lo + 1
	}
	if _, err := fmt.Fprintf(w, "P5\n%d %d\n255\n", nlon, nlat); err != nil {
		return err
	}
	row := make([]byte, nlon)
	for j := nlat - 1; j >= 0; j-- {
		for i := 0; i < nlon; i++ {
			c := g.Index(j, i)
			if mask != nil && !mask[c] {
				row[i] = 0
				continue
			}
			f := (field[c] - lo) / (hi - lo)
			row[i] = byte(25 + f*230)
		}
		if _, err := w.Write(row); err != nil {
			return err
		}
	}
	return nil
}

// SavePGM writes the image to a file path.
func SavePGM(path string, g *sphere.Grid, field []float64, mask []bool) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return WritePGM(f, g, field, mask)
}
