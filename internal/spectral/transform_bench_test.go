package spectral

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkTransform* micro-benchmarks time the workspace-backed hot-path
// entry points at the paper's R15 resolution (48x40 grid). EXPERIMENTS.md
// records the before/after numbers against the allocating implementations
// they replaced. SetBytes counts the principal field data each op moves
// (grid bytes per grid field + 16-byte coefficients per spectral field) so
// -bench reports MB/s alongside ns/op.

func benchSetup() (tr *Transform, grid, grid2 []float64, spec []complex128, ws *Workspace) {
	tr, grid, grid2, spec = testFields(R15)
	ws = tr.NewWorkspace()
	return
}

// benchBytes is the data volume of one transform op touching ng grid
// fields and ns spectral fields.
func benchBytes(tr *Transform, ng, ns int) int64 {
	return int64(ng*tr.NLat*tr.NLon*8 + ns*tr.Trunc.Count()*16)
}

func BenchmarkTransformAnalyze(b *testing.B) {
	tr, grid, _, _, ws := benchSetup()
	out := make([]complex128, tr.Trunc.Count())
	b.SetBytes(benchBytes(tr, 1, 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.AnalyzeInto(out, grid, ws)
	}
}

func BenchmarkTransformSynthesize(b *testing.B) {
	tr, _, _, spec, ws := benchSetup()
	out := make([]float64, tr.NLat*tr.NLon)
	b.SetBytes(benchBytes(tr, 1, 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.SynthesizeInto(out, spec, ws)
	}
}

func BenchmarkTransformSynthesizeWithDerivs(b *testing.B) {
	tr, _, _, spec, ws := benchSetup()
	n := tr.NLat * tr.NLon
	f, dfdl, hmu := make([]float64, n), make([]float64, n), make([]float64, n)
	b.SetBytes(benchBytes(tr, 3, 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.SynthesizeWithDerivsInto(f, dfdl, hmu, spec, ws)
	}
}

func BenchmarkTransformSynthesizeUV(b *testing.B) {
	tr, _, _, spec, ws := benchSetup()
	n := tr.NLat * tr.NLon
	U, V := make([]float64, n), make([]float64, n)
	b.SetBytes(benchBytes(tr, 2, 2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.SynthesizeUVInto(U, V, spec, spec, ws)
	}
}

func BenchmarkTransformAnalyzeDivForm(b *testing.B) {
	tr, grid, grid2, _, ws := benchSetup()
	out := make([]complex128, tr.Trunc.Count())
	b.SetBytes(benchBytes(tr, 2, 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.AnalyzeDivFormInto(out, grid, grid2, 1, -1, ws)
	}
}

func BenchmarkTransformVortDivTend(b *testing.B) {
	tr, grid, grid2, _, ws := benchSetup()
	vort := make([]complex128, tr.Trunc.Count())
	div := make([]complex128, tr.Trunc.Count())
	b.SetBytes(benchBytes(tr, 2, 2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.VortDivTendInto(vort, div, grid, grid2, ws)
	}
}

// The fused-batch benchmarks run at the atmosphere's per-step batch width
// (six levels) so the per-field cost of the shared Legendre-table pass is
// directly comparable to the single-field entries above.

const benchFields = 6

func benchManySetup() (tr *Transform, grids [][]float64, specs [][]complex128, ws *Workspace) {
	tr, _, _, _ = testFields(R15)
	ws = tr.NewWorkspaceMany(2 * benchFields)
	grids, specs = randFields(tr, 42, 2*benchFields, 2*benchFields)
	return
}

func BenchmarkTransformAnalyzeMany(b *testing.B) {
	tr, grids, _, ws := benchManySetup()
	out := make([][]complex128, benchFields)
	for f := range out {
		out[f] = make([]complex128, tr.Trunc.Count())
	}
	b.SetBytes(benchBytes(tr, benchFields, benchFields))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.AnalyzeManyInto(out, grids[:benchFields], ws)
	}
}

func BenchmarkTransformSynthesizeMany(b *testing.B) {
	tr, _, specs, ws := benchManySetup()
	out := make([][]float64, benchFields)
	for f := range out {
		out[f] = make([]float64, tr.NLat*tr.NLon)
	}
	b.SetBytes(benchBytes(tr, benchFields, benchFields))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.SynthesizeManyInto(out, specs[:benchFields], ws)
	}
}

func BenchmarkTransformSynthesizeUVMany(b *testing.B) {
	tr, _, specs, ws := benchManySetup()
	n := tr.NLat * tr.NLon
	Us := make([][]float64, benchFields)
	Vs := make([][]float64, benchFields)
	for f := 0; f < benchFields; f++ {
		Us[f] = make([]float64, n)
		Vs[f] = make([]float64, n)
	}
	b.SetBytes(benchBytes(tr, 2*benchFields, 2*benchFields))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.SynthesizeUVManyInto(Us, Vs, specs[:benchFields], specs[benchFields:], ws)
	}
}

func BenchmarkTransformAnalyzeDivPairMany(b *testing.B) {
	tr, grids, _, ws := benchManySetup()
	out1 := make([][]complex128, benchFields)
	out2 := make([][]complex128, benchFields)
	for f := 0; f < benchFields; f++ {
		out1[f] = make([]complex128, tr.Trunc.Count())
		out2[f] = make([]complex128, tr.Trunc.Count())
	}
	b.SetBytes(benchBytes(tr, 2*benchFields, 2*benchFields))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.AnalyzeDivPairManyInto(out1, out2, grids[:benchFields], grids[benchFields:], 1, -1, 1, 1, ws)
	}
}

// BenchmarkFFTRealRows times one real-row analysis and synthesis at the
// model's (nlon, M) pairs — r5, r9, R15, R21 — and the ocean polar filter's
// 128-point forward/inverse split pair.
func BenchmarkFFTRealRows(b *testing.B) {
	for _, c := range [][2]int{{16, 5}, {30, 9}, {48, 15}, {64, 21}} {
		n, mmax := c[0], c[1]
		f := NewFFT(n)
		s := f.NewScratch()
		rng := rand.New(rand.NewSource(int64(n)))
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		cRe, cIm := make([]float64, mmax+1), make([]float64, mmax+1)
		b.Run(fmt.Sprintf("analyze/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f.AnalyzeRealSplitInto(cRe, cIm, x, mmax, s)
			}
		})
		b.Run(fmt.Sprintf("synthesize/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f.SynthesizeRealSplitInto(x, cRe, cIm, s)
			}
		})
	}
	f := NewFFT(128)
	s := f.NewScratch()
	re, im := make([]float64, 128), make([]float64, 128)
	oRe, oIm := make([]float64, 128), make([]float64, 128)
	for i := range re {
		re[i] = float64(i%7) - 3
	}
	b.Run("split-pair/n=128", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f.ForwardSplitInto(oRe, oIm, re, im, s)
			f.InverseSplitInto(re, im, oRe, oIm, s)
		}
	})
}
