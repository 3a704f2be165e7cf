package ocean

import (
	"math"

	"foam/internal/spectral"
)

// rowFilter is the polar Fourier filter: on rows poleward of the filter
// latitude, zonal wavenumbers above m_max * cos(lat)/cos(latFilter) are
// removed, relaxing the CFL restriction of the converging meridians — the
// "spatial filter similar to the sort used in atmospheric models" of the
// paper's Section 4.2. The transform runs on split re/im planes
// (spectral.ForwardSplitInto / InverseSplitInto), bit-identical to the
// complex transform it replaced.
type rowFilter struct {
	fft        *spectral.FFT
	scr        *spectral.FFTScratch
	specRe     []float64 // spectrum of the row being filtered
	specIm     []float64
	zero, drop []float64 // the row's all-zero imaginary plane; the discarded imaginary output
	row        []float64 // staging row for polarFilter
	nlon       int
}

func newRowFilter(nlon int) *rowFilter {
	fft := spectral.NewFFT(nlon)
	return &rowFilter{
		fft: fft, scr: fft.NewScratch(),
		specRe: make([]float64, nlon), specIm: make([]float64, nlon),
		zero: make([]float64, nlon), drop: make([]float64, nlon),
		row: make([]float64, nlon), nlon: nlon,
	}
}

// apply truncates a single row in place, keeping wavenumbers <= keep. row
// must not be one of the filter's own planes.
func (rf *rowFilter) apply(row []float64, keep int) {
	n := rf.nlon
	if keep >= n/2 {
		return
	}
	rf.fft.ForwardSplitInto(rf.specRe, rf.specIm, row, rf.zero, rf.scr)
	for mIdx := keep + 1; mIdx <= n-keep-1; mIdx++ {
		rf.specRe[mIdx], rf.specIm[mIdx] = 0, 0
	}
	rf.fft.InverseSplitInto(row, rf.drop, rf.specRe, rf.specIm, rf.scr)
}

// polarFilter filters the prognostic fields on rows [j0,j1) poleward of the
// configured latitude. Land values are preserved: land is filled with the
// row-mean ocean value before the transform and only ocean cells are
// written back. rf is the calling worker's filter (its buffers are
// mutated).
func (m *Model) polarFilter(rf *rowFilter, j0, j1 int) {
	nlon := m.cfg.NLon
	latF := m.cfg.PolarFilterLat * math.Pi / 180
	cosF := math.Cos(latF)
	row := rf.row
	for j := j0; j < j1; j++ {
		lat := math.Abs(m.grid.Lats[j])
		if lat <= latF {
			continue
		}
		keep := int(float64(nlon/3) * math.Cos(lat) / cosF)
		if keep < 2 {
			keep = 2
		}
		kr := m.kmtRow(j)
		filterField := func(fld []float64, k int) {
			fr := m.rowOf(fld, j)
			var mean float64
			var cnt int
			for i, kb := range kr {
				if k < kb {
					mean += fr[i]
					cnt++
				}
			}
			if cnt == 0 {
				return
			}
			mean /= float64(cnt)
			for i, kb := range kr {
				if k < kb {
					row[i] = fr[i]
				} else {
					row[i] = mean
				}
			}
			rf.apply(row, keep)
			for i, kb := range kr {
				if k < kb {
					fr[i] = row[i]
				}
			}
		}
		for k := 0; k < m.cfg.NLev; k++ {
			filterField(m.u[k], k)
			filterField(m.v[k], k)
			filterField(m.t[k], k)
			filterField(m.s[k], k)
		}
		filterField(m.eta, 0)
		filterField(m.ubt, 0)
		filterField(m.vbt, 0)
	}
}
