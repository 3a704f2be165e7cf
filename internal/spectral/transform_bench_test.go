package spectral

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkTransform* micro-benchmarks time the workspace-backed hot-path
// entry points at three rungs: R5 (16x16 grid), the paper's R15 (48x40) and
// R21 (64x54), the rung whose per-latitude tables no longer fitted in L2.
// SetBytes counts the principal field data each op moves (grid bytes per
// grid field + 16-byte coefficients per spectral field) so -bench reports
// MB/s alongside ns/op.

// benchRungs are the sub-benchmarks of every BenchmarkTransform*.
var benchRungs = []int{5, 15, 21}

// benchRun runs body once per rung as a sub-benchmark "R<M>".
func benchRun(b *testing.B, body func(b *testing.B, t Truncation)) {
	for _, M := range benchRungs {
		b.Run(fmt.Sprintf("R%d", M), func(b *testing.B) { body(b, Rhomboidal(M)) })
	}
}

func benchSetup(t Truncation) (tr *Transform, grid, grid2 []float64, spec []complex128, ws *Workspace) {
	tr, grid, grid2, spec = testFields(t)
	ws = tr.NewWorkspace()
	return
}

// benchBytes is the data volume of one transform op touching ng grid
// fields and ns spectral fields.
func benchBytes(tr *Transform, ng, ns int) int64 {
	return int64(ng*tr.NLat*tr.NLon*8 + ns*tr.Trunc.Count()*16)
}

// benchLoop reports bytes and allocations and times b.N calls of op.
func benchLoop(b *testing.B, bytes int64, op func()) {
	b.SetBytes(bytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

func BenchmarkTransformAnalyze(b *testing.B) {
	benchRun(b, func(b *testing.B, t Truncation) {
		tr, grid, _, _, ws := benchSetup(t)
		out := make([]complex128, tr.Trunc.Count())
		benchLoop(b, benchBytes(tr, 1, 1), func() { tr.AnalyzeInto(out, grid, ws) })
	})
}

func BenchmarkTransformSynthesize(b *testing.B) {
	benchRun(b, func(b *testing.B, t Truncation) {
		tr, _, _, spec, ws := benchSetup(t)
		out := make([]float64, tr.NLat*tr.NLon)
		benchLoop(b, benchBytes(tr, 1, 1), func() { tr.SynthesizeInto(out, spec, ws) })
	})
}

func BenchmarkTransformSynthesizeWithDerivs(b *testing.B) {
	benchRun(b, func(b *testing.B, t Truncation) {
		tr, _, _, spec, ws := benchSetup(t)
		n := tr.NLat * tr.NLon
		f, dfdl, hmu := make([]float64, n), make([]float64, n), make([]float64, n)
		benchLoop(b, benchBytes(tr, 3, 1), func() { tr.SynthesizeWithDerivsInto(f, dfdl, hmu, spec, ws) })
	})
}

func BenchmarkTransformSynthesizeUV(b *testing.B) {
	benchRun(b, func(b *testing.B, t Truncation) {
		tr, _, _, spec, ws := benchSetup(t)
		n := tr.NLat * tr.NLon
		U, V := make([]float64, n), make([]float64, n)
		benchLoop(b, benchBytes(tr, 2, 2), func() { tr.SynthesizeUVInto(U, V, spec, spec, ws) })
	})
}

func BenchmarkTransformAnalyzeDivForm(b *testing.B) {
	benchRun(b, func(b *testing.B, t Truncation) {
		tr, grid, grid2, _, ws := benchSetup(t)
		out := make([]complex128, tr.Trunc.Count())
		benchLoop(b, benchBytes(tr, 2, 1), func() { tr.AnalyzeDivFormInto(out, grid, grid2, 1, -1, ws) })
	})
}

func BenchmarkTransformVortDivTend(b *testing.B) {
	benchRun(b, func(b *testing.B, t Truncation) {
		tr, grid, grid2, _, ws := benchSetup(t)
		vort := make([]complex128, tr.Trunc.Count())
		div := make([]complex128, tr.Trunc.Count())
		benchLoop(b, benchBytes(tr, 2, 2), func() { tr.VortDivTendInto(vort, div, grid, grid2, ws) })
	})
}

// The fused-batch benchmarks run at the atmosphere's per-step batch width
// (six levels) so the per-field cost of the shared Legendre-table pass is
// directly comparable to the single-field entries above.

const benchFields = 6

func benchManySetup(t Truncation) (tr *Transform, grids [][]float64, specs [][]complex128, ws *Workspace) {
	tr, _, _, _ = testFields(t)
	ws = tr.NewWorkspaceMany(2 * benchFields)
	grids, specs = randFields(tr, 42, 2*benchFields, 2*benchFields)
	return
}

// benchSpecs allocates nf spectral destinations for tr.
func benchSpecs(tr *Transform, nf int) [][]complex128 {
	out := make([][]complex128, nf)
	for f := range out {
		out[f] = make([]complex128, tr.Trunc.Count())
	}
	return out
}

// benchGrids allocates nf grid destinations for tr.
func benchGrids(tr *Transform, nf int) [][]float64 {
	out := make([][]float64, nf)
	for f := range out {
		out[f] = make([]float64, tr.NLat*tr.NLon)
	}
	return out
}

func BenchmarkTransformAnalyzeMany(b *testing.B) {
	benchRun(b, func(b *testing.B, t Truncation) {
		tr, grids, _, ws := benchManySetup(t)
		out := benchSpecs(tr, benchFields)
		benchLoop(b, benchBytes(tr, benchFields, benchFields), func() { tr.AnalyzeManyInto(out, grids[:benchFields], ws) })
	})
}

func BenchmarkTransformSynthesizeMany(b *testing.B) {
	benchRun(b, func(b *testing.B, t Truncation) {
		tr, _, specs, ws := benchManySetup(t)
		out := benchGrids(tr, benchFields)
		benchLoop(b, benchBytes(tr, benchFields, benchFields), func() { tr.SynthesizeManyInto(out, specs[:benchFields], ws) })
	})
}

func BenchmarkTransformSynthesizeUVMany(b *testing.B) {
	benchRun(b, func(b *testing.B, t Truncation) {
		tr, _, specs, ws := benchManySetup(t)
		Us, Vs := benchGrids(tr, benchFields), benchGrids(tr, benchFields)
		benchLoop(b, benchBytes(tr, 2*benchFields, 2*benchFields), func() {
			tr.SynthesizeUVManyInto(Us, Vs, specs[:benchFields], specs[benchFields:], ws)
		})
	})
}

func BenchmarkTransformAnalyzeDivPairMany(b *testing.B) {
	benchRun(b, func(b *testing.B, t Truncation) {
		tr, grids, _, ws := benchManySetup(t)
		out1, out2 := benchSpecs(tr, benchFields), benchSpecs(tr, benchFields)
		benchLoop(b, benchBytes(tr, 2*benchFields, 2*benchFields), func() {
			tr.AnalyzeDivPairManyInto(out1, out2, grids[:benchFields], grids[benchFields:], 1, -1, 1, 1, ws)
		})
	})
}

// BenchmarkFFTPairRows times one row-pair analysis and synthesis (one
// complex transform each) at the model's (nlon, M) pairs — r5, r9, R15,
// R21 — and the ocean polar filter's 128-point forward/inverse split pair.
func BenchmarkFFTPairRows(b *testing.B) {
	for _, c := range [][2]int{{16, 5}, {30, 9}, {48, 15}, {64, 21}} {
		n, mmax := c[0], c[1]
		f := NewFFT(n)
		s := f.NewScratch()
		rng := rand.New(rand.NewSource(int64(n)))
		x, y := make([]float64, n), make([]float64, n)
		for i := range x {
			x[i], y[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		c := make([][]float64, 4)
		for i := range c {
			c[i] = make([]float64, mmax+1)
		}
		b.Run(fmt.Sprintf("analyze/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f.analyzePair(c[0], c[1], c[2], c[3], x, y, s)
			}
		})
		b.Run(fmt.Sprintf("synthesize/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f.synthesizePair(x, y, c[0], c[1], c[2], c[3], s)
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
