package main

import (
	"foam/internal/core"
	"foam/internal/spectral"
)

// spectralKernels times the fused multi-field transform entry points the
// atmosphere step calls, stand-alone, at the workload's truncation with one
// field per model level: the floor of 20 calls each.
func spectralKernels(res *result, tb *core.Tables, nlev int) {
	tr := tb.Spectral.Share()
	n, nc := tr.NLat*tr.NLon, tr.Trunc.Count()
	ws := tr.NewWorkspaceMany(nlev)
	grids := func() [][]float64 {
		g := make([][]float64, nlev)
		for k := range g {
			g[k] = make([]float64, n)
			for i := range g[k] {
				g[k][i] = float64((i*7+k*13)%97) / 97
			}
		}
		return g
	}
	specs := func() [][]complex128 {
		s := make([][]complex128, nlev)
		for k := range s {
			s[k] = make([]complex128, nc)
		}
		return s
	}
	a, b, u, v := grids(), grids(), grids(), grids()
	s1, s2 := specs(), specs()
	const reps = 20
	us := func(fn func()) float64 { return minOf(reps, fn) / nsPerUs }
	res.set("spectral.analyze_many_us", us(func() { tr.AnalyzeManyInto(s1, a, ws) }))
	res.set("spectral.synthesize_many_us", us(func() { tr.SynthesizeManyInto(u, s1, ws) }))
	res.set("spectral.synthesize_uv_many_us", us(func() { tr.SynthesizeUVManyInto(u, v, s1, s2, ws) }))
	res.set("spectral.analyze_div_pair_many_us", us(func() {
		tr.AnalyzeDivPairManyInto(s1, s2, a, b, 1, 1, -1, 1, ws)
	}))
	res.set("spectral.vort_div_tend_us", us(func() { tr.VortDivTendInto(s1[0], s2[0], a[0], b[0], ws) }))
	// Computed, not measured: the two flattened Legendre tables every
	// transform sweeps (P and H, one row per latitude).
	m, nmax := tr.Trunc.M, tr.Trunc.NMax()
	row := spectral.NewLegendre(m, nmax+1).TableSize() + spectral.NewLegendre(m, nmax).TableSize()
	res.set("spectral.table_kb", float64(tr.NLat*row*8)/1000)
}
