package spectral

// Bit-identity tests for the split-complex kernel layer: every split or
// fused-batch form must reproduce the complex reference path exactly
// (==, not within tolerance), across truncations, serially and pooled.

import (
	"math"
	"math/rand"
	"testing"

	"foam/internal/pool"
	"foam/internal/sphere"
)

// sameF64 compares float64 slices bit for bit (so ±0 and NaN patterns
// count), returning the first differing index or -1.
func sameF64(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

func sameC128(a, b []complex128) int {
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return i
		}
	}
	return -1
}

// refKit is a self-contained serial reference implementation of every
// transform kernel, written in the pre-split complex form (complex128
// Fourier rows, complex accumulators, the recursive complex FFT path).
// It shares only the precomputed tables with the Transform under test,
// so any arithmetic drift in the split-complex or fused kernels shows
// up as a bit difference here.
type refKit struct {
	tr          *Transform
	s           *FFTScratch
	rows, rowsB []complex128
	c1, c2, c3  []complex128
	psi, chi    []complex128
}

func newRefKit(tr *Transform) *refKit {
	mm := tr.Trunc.M + 1
	return &refKit{
		tr:    tr,
		s:     tr.fft.NewScratch(),
		rows:  make([]complex128, tr.NLat*mm),
		rowsB: make([]complex128, tr.NLat*mm),
		c1:    make([]complex128, mm),
		c2:    make([]complex128, mm),
		c3:    make([]complex128, mm),
		psi:   make([]complex128, tr.Trunc.Count()),
		chi:   make([]complex128, tr.Trunc.Count()),
	}
}

func (r *refKit) fourier(rows []complex128, grid []float64) {
	tr := r.tr
	mm := tr.Trunc.M + 1
	for j := 0; j < tr.NLat; j++ {
		tr.fft.AnalyzeRealInto(rows[j*mm:(j+1)*mm], grid[j*tr.NLon:(j+1)*tr.NLon], tr.Trunc.M, r.s)
	}
}

func (r *refKit) analyze(spec []complex128, grid []float64) {
	tr := r.tr
	t := tr.Trunc
	mm := t.M + 1
	r.fourier(r.rows, grid)
	for i := range spec {
		spec[i] = 0
	}
	for j := 0; j < tr.NLat; j++ {
		wj := tr.w[j]
		p := tr.pRow(j)
		row := r.rows[j*mm : (j+1)*mm]
		for m := 0; m <= t.M; m++ {
			f := row[m] * complex(wj, 0)
			off := tr.pl.Offset(m)
			base := t.Index(m, m)
			for k := 0; k <= t.K; k++ {
				spec[base+k] += f * complex(p[off+k], 0)
			}
		}
	}
}

func (r *refKit) synthesize(grid []float64, spec []complex128) {
	tr := r.tr
	t := tr.Trunc
	for j := 0; j < tr.NLat; j++ {
		p := tr.pRow(j)
		for m := 0; m <= t.M; m++ {
			off := tr.pl.Offset(m)
			base := t.Index(m, m)
			var sum complex128
			for k := 0; k <= t.K; k++ {
				sum += spec[base+k] * complex(p[off+k], 0)
			}
			r.c1[m] = sum
		}
		tr.fft.SynthesizeRealInto(grid[j*tr.NLon:(j+1)*tr.NLon], r.c1, r.s)
	}
}

func (r *refKit) synthDerivs(f, dfdl, hmu []float64, spec []complex128) {
	tr := r.tr
	t := tr.Trunc
	for j := 0; j < tr.NLat; j++ {
		p := tr.pRow(j)
		h := tr.hRow(j)
		for m := 0; m <= t.M; m++ {
			offP := tr.pl.Offset(m)
			offH := tr.hl.Offset(m)
			base := t.Index(m, m)
			var sf, sh complex128
			for k := 0; k <= t.K; k++ {
				c := spec[base+k]
				sf += c * complex(p[offP+k], 0)
				sh += c * complex(h[offH+k], 0)
			}
			r.c1[m] = sf
			r.c2[m] = complex(0, float64(m)) * sf
			r.c3[m] = sh
		}
		tr.fft.SynthesizeRealInto(f[j*tr.NLon:(j+1)*tr.NLon], r.c1, r.s)
		tr.fft.SynthesizeRealInto(dfdl[j*tr.NLon:(j+1)*tr.NLon], r.c2, r.s)
		tr.fft.SynthesizeRealInto(hmu[j*tr.NLon:(j+1)*tr.NLon], r.c3, r.s)
	}
}

func (r *refKit) synthUV(U, V []float64, vort, div []complex128) {
	tr := r.tr
	t := tr.Trunc
	a2 := sphere.Radius * sphere.Radius
	for m := 0; m <= t.M; m++ {
		for n := m; n <= m+t.K; n++ {
			idx := t.Index(m, n)
			if n == 0 {
				r.psi[idx] = 0
				r.chi[idx] = 0
				continue
			}
			s := complex(-a2/float64(n*(n+1)), 0)
			r.psi[idx] = s * vort[idx]
			r.chi[idx] = s * div[idx]
		}
	}
	inva := complex(1/sphere.Radius, 0)
	for j := 0; j < tr.NLat; j++ {
		p := tr.pRow(j)
		h := tr.hRow(j)
		for m := 0; m <= t.M; m++ {
			offP := tr.pl.Offset(m)
			offH := tr.hl.Offset(m)
			base := t.Index(m, m)
			var sPsi, sChi, hPsi, hChi complex128
			for k := 0; k <= t.K; k++ {
				pv := complex(p[offP+k], 0)
				hv := complex(h[offH+k], 0)
				sPsi += r.psi[base+k] * pv
				sChi += r.chi[base+k] * pv
				hPsi += r.psi[base+k] * hv
				hChi += r.chi[base+k] * hv
			}
			im := complex(0, float64(m))
			r.c1[m] = (im*sChi - hPsi) * inva
			r.c2[m] = (im*sPsi + hChi) * inva
		}
		tr.fft.SynthesizeRealInto(U[j*tr.NLon:(j+1)*tr.NLon], r.c1, r.s)
		tr.fft.SynthesizeRealInto(V[j*tr.NLon:(j+1)*tr.NLon], r.c2, r.s)
	}
}

func (r *refKit) accumDiv(spec, rowsA, rowsB []complex128, signA, signB float64) {
	tr := r.tr
	t := tr.Trunc
	mm := t.M + 1
	for i := range spec {
		spec[i] = 0
	}
	inva := 1 / sphere.Radius
	for j := 0; j < tr.NLat; j++ {
		wj := tr.w[j] / tr.oneMu2[j] * inva
		p := tr.pRow(j)
		h := tr.hRow(j)
		rowA := rowsA[j*mm : (j+1)*mm]
		rowB := rowsB[j*mm : (j+1)*mm]
		for m := 0; m <= t.M; m++ {
			fa := rowA[m] * complex(0, signA*(float64(m)*wj))
			fb := rowB[m] * complex(signB*wj, 0)
			offP := tr.pl.Offset(m)
			offH := tr.hl.Offset(m)
			base := t.Index(m, m)
			for k := 0; k <= t.K; k++ {
				spec[base+k] += fa*complex(p[offP+k], 0) - fb*complex(h[offH+k], 0)
			}
		}
	}
}

func (r *refKit) divForm(spec []complex128, A, B []float64, signA, signB float64) {
	r.fourier(r.rows, A)
	r.fourier(r.rowsB, B)
	r.accumDiv(spec, r.rows, r.rowsB, signA, signB)
}

func (r *refKit) vortDivTend(vort, div []complex128, A, B []float64) {
	r.fourier(r.rows, A)
	r.fourier(r.rowsB, B)
	r.accumDiv(vort, r.rows, r.rowsB, -1, -1)
	r.accumDiv(div, r.rowsB, r.rows, 1, -1)
}

// randFields builds deterministic random grid and spectral inputs.
func randFields(tr *Transform, seed int64, ng, ns int) (grids [][]float64, specs [][]complex128) {
	rng := rand.New(rand.NewSource(seed))
	t := tr.Trunc
	n := tr.NLat * tr.NLon
	for i := 0; i < ng; i++ {
		g := make([]float64, n)
		for c := range g {
			g[c] = rng.NormFloat64()
		}
		grids = append(grids, g)
	}
	for i := 0; i < ns; i++ {
		s := make([]complex128, t.Count())
		for m := 0; m <= t.M; m++ {
			for nn := m; nn <= m+t.K; nn++ {
				im := rng.NormFloat64()
				if m == 0 {
					im = 0
				}
				s[t.Index(m, nn)] = complex(rng.NormFloat64(), im)
			}
		}
		specs = append(specs, s)
	}
	return grids, specs
}

// TestKernelsBitIdenticalToReference checks every split-complex *Into
// entry point against the serial complex reference, across truncations,
// serially and pooled.
func TestKernelsBitIdenticalToReference(t *testing.T) {
	for _, M := range []int{4, 15, 21} {
		for _, workers := range []int{1, 3} {
			tr0 := Rhomboidal(M)
			nlat, nlon := tr0.GridFor()
			tr := NewTransform(tr0, nlat, nlon)
			if workers > 1 {
				pp := pool.New(workers)
				defer pp.Close()
				tr.SetPool(pp)
			}
			ws := tr.NewWorkspace()
			ref := newRefKit(tr)
			grids, specs := randFields(tr, int64(100*M+workers), 2, 2)
			n := nlat * nlon
			cnt := tr0.Count()

			gotS, wantS := make([]complex128, cnt), make([]complex128, cnt)
			gotS2, wantS2 := make([]complex128, cnt), make([]complex128, cnt)
			gotG, wantG := make([]float64, n), make([]float64, n)
			gotG2, wantG2 := make([]float64, n), make([]float64, n)
			gotG3, wantG3 := make([]float64, n), make([]float64, n)

			tr.AnalyzeInto(gotS, grids[0], ws)
			ref.analyze(wantS, grids[0])
			if i := sameC128(gotS, wantS); i >= 0 {
				t.Fatalf("M=%d w=%d Analyze idx=%d: %v != %v", M, workers, i, gotS[i], wantS[i])
			}
			tr.SynthesizeInto(gotG, specs[0], ws)
			ref.synthesize(wantG, specs[0])
			if i := sameF64(gotG, wantG); i >= 0 {
				t.Fatalf("M=%d w=%d Synthesize c=%d: %v != %v", M, workers, i, gotG[i], wantG[i])
			}
			tr.SynthesizeWithDerivsInto(gotG, gotG2, gotG3, specs[0], ws)
			ref.synthDerivs(wantG, wantG2, wantG3, specs[0])
			if i := sameF64(gotG, wantG); i >= 0 {
				t.Fatalf("M=%d w=%d Derivs f c=%d", M, workers, i)
			}
			if i := sameF64(gotG2, wantG2); i >= 0 {
				t.Fatalf("M=%d w=%d Derivs dfdl c=%d", M, workers, i)
			}
			if i := sameF64(gotG3, wantG3); i >= 0 {
				t.Fatalf("M=%d w=%d Derivs hmu c=%d", M, workers, i)
			}
			tr.SynthesizeUVInto(gotG, gotG2, specs[0], specs[1], ws)
			ref.synthUV(wantG, wantG2, specs[0], specs[1])
			if i := sameF64(gotG, wantG); i >= 0 {
				t.Fatalf("M=%d w=%d UV U c=%d", M, workers, i)
			}
			if i := sameF64(gotG2, wantG2); i >= 0 {
				t.Fatalf("M=%d w=%d UV V c=%d", M, workers, i)
			}
			for _, sg := range [][2]float64{{1, 1}, {1, -1}, {-1, 1}, {-1, -1}} {
				tr.AnalyzeDivFormInto(gotS, grids[0], grids[1], sg[0], sg[1], ws)
				ref.divForm(wantS, grids[0], grids[1], sg[0], sg[1])
				if i := sameC128(gotS, wantS); i >= 0 {
					t.Fatalf("M=%d w=%d DivForm(%v) idx=%d: %v != %v", M, workers, sg, i, gotS[i], wantS[i])
				}
			}
			tr.VortDivTendInto(gotS, gotS2, grids[0], grids[1], ws)
			ref.vortDivTend(wantS, wantS2, grids[0], grids[1])
			if i := sameC128(gotS, wantS); i >= 0 {
				t.Fatalf("M=%d w=%d VortDivTend vort idx=%d", M, workers, i)
			}
			if i := sameC128(gotS2, wantS2); i >= 0 {
				t.Fatalf("M=%d w=%d VortDivTend div idx=%d", M, workers, i)
			}
		}
	}
}

// TestFusedBatchBitIdenticalToReference checks the fused multi-field
// entry points field by field against the serial complex reference.
func TestFusedBatchBitIdenticalToReference(t *testing.T) {
	const nf = 3
	for _, M := range []int{4, 15, 21} {
		for _, workers := range []int{1, 3} {
			tr0 := Rhomboidal(M)
			nlat, nlon := tr0.GridFor()
			tr := NewTransform(tr0, nlat, nlon)
			if workers > 1 {
				pp := pool.New(workers)
				defer pp.Close()
				tr.SetPool(pp)
			}
			ws := tr.NewWorkspaceMany(nf)
			ref := newRefKit(tr)
			grids, specs := randFields(tr, int64(900*M+workers), 2*nf, 2*nf)
			n := nlat * nlon
			cnt := tr0.Count()
			outS := make([][]complex128, 2*nf)
			for f := range outS {
				outS[f] = make([]complex128, cnt)
			}
			outG := make([][]float64, 2*nf)
			for f := range outG {
				outG[f] = make([]float64, n)
			}
			want := make([]complex128, cnt)
			want2 := make([]complex128, cnt)
			wantG := make([]float64, n)
			wantG2 := make([]float64, n)

			tr.AnalyzeManyInto(outS[:nf], grids[:nf], ws)
			for f := 0; f < nf; f++ {
				ref.analyze(want, grids[f])
				if i := sameC128(outS[f], want); i >= 0 {
					t.Fatalf("M=%d w=%d AnalyzeMany f=%d idx=%d", M, workers, f, i)
				}
			}
			tr.SynthesizeManyInto(outG[:nf], specs[:nf], ws)
			for f := 0; f < nf; f++ {
				ref.synthesize(wantG, specs[f])
				if i := sameF64(outG[f], wantG); i >= 0 {
					t.Fatalf("M=%d w=%d SynthesizeMany f=%d c=%d", M, workers, f, i)
				}
			}
			tr.SynthesizeUVManyInto(outG[:nf], outG[nf:], specs[:nf], specs[nf:], ws)
			for f := 0; f < nf; f++ {
				ref.synthUV(wantG, wantG2, specs[f], specs[nf+f])
				if i := sameF64(outG[f], wantG); i >= 0 {
					t.Fatalf("M=%d w=%d UVMany U f=%d c=%d", M, workers, f, i)
				}
				if i := sameF64(outG[nf+f], wantG2); i >= 0 {
					t.Fatalf("M=%d w=%d UVMany V f=%d c=%d", M, workers, f, i)
				}
			}
			tr.AnalyzeDivFormManyInto(outS[:nf], grids[:nf], grids[nf:], 1, -1, ws)
			for f := 0; f < nf; f++ {
				ref.divForm(want, grids[f], grids[nf+f], 1, -1)
				if i := sameC128(outS[f], want); i >= 0 {
					t.Fatalf("M=%d w=%d DivFormMany f=%d idx=%d", M, workers, f, i)
				}
			}
			tr.AnalyzeDivPairManyInto(outS[:nf], outS[nf:], grids[:nf], grids[nf:], 1, -1, 1, 1, ws)
			for f := 0; f < nf; f++ {
				ref.fourier(ref.rows, grids[f])
				ref.fourier(ref.rowsB, grids[nf+f])
				ref.accumDiv(want, ref.rows, ref.rowsB, 1, -1)
				ref.accumDiv(want2, ref.rowsB, ref.rows, 1, 1)
				if i := sameC128(outS[f], want); i >= 0 {
					t.Fatalf("M=%d w=%d DivPairMany a f=%d idx=%d", M, workers, f, i)
				}
				if i := sameC128(outS[nf+f], want2); i >= 0 {
					t.Fatalf("M=%d w=%d DivPairMany b f=%d idx=%d", M, workers, f, i)
				}
			}
		}
	}
}

func TestFFTSplitRealBitIdentical(t *testing.T) {
	for _, n := range []int{2, 4, 6, 7, 11, 12, 16, 30, 48, 54, 64, 90} {
		f := NewFFT(n)
		s := f.NewScratch()
		s2 := f.NewScratch()
		rng := rand.New(rand.NewSource(int64(n)))
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		mmax := (n - 1) / 2
		if mmax >= (n+1)/2 {
			mmax = (n+1)/2 - 1
		}

		ref := make([]complex128, mmax+1)
		f.AnalyzeRealInto(ref, x, mmax, s)
		gotRe := make([]float64, mmax+1)
		gotIm := make([]float64, mmax+1)
		f.AnalyzeRealSplitInto(gotRe, gotIm, x, mmax, s2)
		for m := 0; m <= mmax; m++ {
			if math.Float64bits(gotRe[m]) != math.Float64bits(real(ref[m])) ||
				math.Float64bits(gotIm[m]) != math.Float64bits(imag(ref[m])) {
				t.Fatalf("n=%d analyze m=%d: split (%v,%v) != complex %v", n, m, gotRe[m], gotIm[m], ref[m])
			}
		}

		wantGrid := make([]float64, n)
		f.SynthesizeRealInto(wantGrid, ref, s)
		gotGrid := make([]float64, n)
		f.SynthesizeRealSplitInto(gotGrid, gotRe, gotIm, s2)
		if i := sameF64(gotGrid, wantGrid); i >= 0 {
			t.Fatalf("n=%d synthesize j=%d: split %v != complex %v", n, i, gotGrid[i], wantGrid[i])
		}
	}
}

// TestFFTSplitPlanesBitIdentical pins the exported split-plane pair to the
// complex entry points: ForwardSplitInto/InverseSplitInto must reproduce
// ForwardInto/InverseInto bit for bit, on smooth lengths (the model's 48,
// 64 and 128-point rows) and on a non-smooth one (the direct fallback).
func TestFFTSplitPlanesBitIdentical(t *testing.T) {
	for _, n := range []int{48, 64, 128, 22} {
		f := NewFFT(n)
		s := f.NewScratch()
		rng := rand.New(rand.NewSource(int64(n)))
		src := make([]complex128, n)
		srcRe, srcIm := make([]float64, n), make([]float64, n)
		for i := range src {
			srcRe[i], srcIm[i] = rng.NormFloat64(), rng.NormFloat64()
			if i%5 == 0 {
				srcIm[i] = 0 // real-input rows are what the ocean filter feeds
			}
			src[i] = complex(srcRe[i], srcIm[i])
		}
		want := make([]complex128, n)
		gotRe, gotIm := make([]float64, n), make([]float64, n)
		check := func(what string) {
			t.Helper()
			for i := range want {
				if math.Float64bits(gotRe[i]) != math.Float64bits(real(want[i])) ||
					math.Float64bits(gotIm[i]) != math.Float64bits(imag(want[i])) {
					t.Fatalf("n=%d %s i=%d: split (%v,%v) != complex %v", n, what, i, gotRe[i], gotIm[i], want[i])
				}
			}
		}
		f.ForwardInto(want, src, s)
		f.ForwardSplitInto(gotRe, gotIm, srcRe, srcIm, s)
		check("forward")
		f.InverseInto(want, src, s)
		f.InverseSplitInto(gotRe, gotIm, srcRe, srcIm, s)
		check("inverse")
	}
}
