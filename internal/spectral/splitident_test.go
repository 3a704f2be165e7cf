package spectral

// Bit-identity tests for the split-complex kernel layer: every split or
// fused-batch form must reproduce the complex reference path exactly
// (==, not within tolerance), across truncations, serially and pooled.

import (
	"math"
	"math/cmplx"
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
	rows, rowsB []complex128
	c1, c2, c3  []complex128
	psi, chi    []complex128
}

func newRefKit(tr *Transform) *refKit {
	mm := tr.Trunc.M + 1
	return &refKit{
		tr:    tr,
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
		tr.fft.AnalyzeReal(rows[j*mm:(j+1)*mm], grid[j*tr.NLon:(j+1)*tr.NLon], tr.Trunc.M)
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
		tr.fft.SynthesizeReal(grid[j*tr.NLon:(j+1)*tr.NLon], r.c1)
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
		tr.fft.SynthesizeReal(f[j*tr.NLon:(j+1)*tr.NLon], r.c1)
		tr.fft.SynthesizeReal(dfdl[j*tr.NLon:(j+1)*tr.NLon], r.c2)
		tr.fft.SynthesizeReal(hmu[j*tr.NLon:(j+1)*tr.NLon], r.c3)
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
		tr.fft.SynthesizeReal(U[j*tr.NLon:(j+1)*tr.NLon], r.c1)
		tr.fft.SynthesizeReal(V[j*tr.NLon:(j+1)*tr.NLon], r.c2)
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

// fftRowCases returns the (n, mmax) pairs the real-row proofs run over: a
// dense spectrum (mmax = (n-1)/2) at every length class — smooth, single
// stage, non-smooth — and the sparse pairs the model's rungs use (r5, r9,
// R15, R21) plus one larger.
func fftRowCases() [][2]int {
	var cases [][2]int
	for _, n := range []int{2, 4, 6, 7, 11, 12, 16, 30, 48, 54, 64, 90} {
		cases = append(cases, [2]int{n, (n - 1) / 2})
	}
	return append(cases, [][2]int{{16, 5}, {30, 9}, {48, 15}, {64, 21}, {128, 42}}...)
}

// fftRowInputs returns length-n rows that exercise what the ±0-absorption
// argument of iterSplit leans on: random data, all-zero and all -0 rows,
// rows with -0 entries, a single non-zero entry, alternating signs that
// cancel exactly, and amplitudes so small that products and the 1/n scaling
// underflow (the fftTiny guard).
func fftRowInputs(n int, rng *rand.Rand) map[string][]float64 {
	negZero := math.Copysign(0, -1)
	in := map[string][]float64{
		"random": make([]float64, n), "zero": make([]float64, n), "negzero": make([]float64, n),
		"mixed-zero": make([]float64, n), "single": make([]float64, n), "alternating": make([]float64, n),
		"tiny": make([]float64, n), "tiny-random": make([]float64, n),
	}
	for i := 0; i < n; i++ {
		in["random"][i] = rng.NormFloat64()
		in["negzero"][i] = negZero
		if i%3 == 0 {
			in["mixed-zero"][i] = negZero
		} else if i%3 == 1 {
			in["mixed-zero"][i] = rng.NormFloat64()
		}
		in["alternating"][i] = 1.5 * float64(1-2*(i%2))
		in["tiny"][i] = 0x1p-1070 * float64(1-2*(i%2)) * float64(1+i%3)
		in["tiny-random"][i] = 0x1p-1068 * rng.NormFloat64()
	}
	in["single"][n/3] = -2.75
	return in
}

// TestFFTSplitRealBitIdentical pins the pruned real-row entry points to the
// complex reference (fft_ref_test.go) bit for bit. The scratch is reused
// across calls with its staging planes poisoned, so a kernel that read a
// structural zero it is told not to would drag a NaN into the result.
func TestFFTSplitRealBitIdentical(t *testing.T) {
	sawNegZero, sawPosZeroFromNeg := false, false
	for _, c := range fftRowCases() {
		n, mmax := c[0], c[1]
		f := NewFFT(n)
		s := f.NewScratch()
		rng := rand.New(rand.NewSource(int64(n)))
		inputs := fftRowInputs(n, rng)
		for name, x := range inputs {
			ref := make([]complex128, mmax+1)
			f.AnalyzeReal(ref, x, mmax)
			gotRe := make([]float64, mmax+1)
			gotIm := make([]float64, mmax+1)
			f.AnalyzeRealSplitInto(gotRe, gotIm, x, mmax, s)
			for m := 0; m <= mmax; m++ {
				if math.Float64bits(gotRe[m]) != math.Float64bits(real(ref[m])) ||
					math.Float64bits(gotIm[m]) != math.Float64bits(imag(ref[m])) {
					t.Fatalf("n=%d mmax=%d %s analyze m=%d: split (%v,%v) != complex %v", n, mmax, name, m, gotRe[m], gotIm[m], ref[m])
				}
			}

			// Synthesis from the row's own (band-limited) spectrum, and from
			// the row's first mmax+1 entries read as raw coefficients, so
			// -0, single-entry and tiny spectra reach the leaf stage too.
			for _, coefs := range [][]complex128{ref, rawCoefs(x, inputs["random"], mmax)} {
				cRe, cIm := make([]float64, mmax+1), make([]float64, mmax+1)
				for m, v := range coefs {
					cRe[m], cIm[m] = real(v), imag(v)
				}
				wantGrid := make([]float64, n)
				f.SynthesizeReal(wantGrid, coefs)
				for i := range s.bufRe {
					s.bufRe[i], s.bufIm[i] = math.NaN(), math.NaN()
				}
				gotGrid := make([]float64, n)
				f.SynthesizeRealSplitInto(gotGrid, cRe, cIm, s)
				if i := sameF64(gotGrid, wantGrid); i >= 0 {
					t.Fatalf("n=%d mmax=%d %s synthesize j=%d: split %v != complex %v", n, mmax, name, i, gotGrid[i], wantGrid[i])
				}
				if name == "tiny" || name == "tiny-random" {
					for _, v := range wantGrid {
						sawNegZero = sawNegZero || (v == 0 && math.Signbit(v))
					}
					sawPosZeroFromNeg = sawPosZeroFromNeg || tinyNegativeRoundsToPlusZero(f, coefs)
				}
			}
		}
	}
	// The guard is only proven if the inputs reach it: some tiny negative
	// sums must scale to -0, and some must come out +0 because the unread
	// imaginary lane is negative.
	if !sawNegZero || !sawPosZeroFromNeg {
		t.Fatalf("tiny rows never reached the underflow guard (-0 seen: %v, +0 from a negative sum: %v)", sawNegZero, sawPosZeroFromNeg)
	}
}

// rawCoefs reads a row's first mmax+1 entries as Fourier coefficients
// (imaginary parts from a second row, zero at m = 0).
func rawCoefs(re, im []float64, mmax int) []complex128 {
	c := make([]complex128, mmax+1)
	for m := range c {
		c[m] = complex(re[m], im[m]*re[m])
	}
	c[0] = complex(re[0], 0)
	return c
}

// tinyNegativeRoundsToPlusZero reports whether the reference inverse
// transform of the Hermitian extension of coefs has an output whose real
// part is negative, underflows to zero under the 1/n scaling, and still
// ends +0 — the case that depends on the sign of the imaginary lane.
func tinyNegativeRoundsToPlusZero(f *FFT, coefs []complex128) bool {
	n := f.n
	buf, raw := make([]complex128, n), make([]complex128, n)
	buf[0] = complex(real(coefs[0]), 0)
	for m := 1; m < len(coefs); m++ {
		buf[m] = coefs[m]
		buf[n-m] = cmplx.Conj(coefs[m])
	}
	f.transform(raw, buf, true)
	for _, v := range raw {
		if re := real(v); re < 0 && re/float64(n) == 0 && imag(v) < 0 {
			return true
		}
	}
	return false
}

// TestFFTUnitTwiddle pins what the kernels assume when they add the r = 0
// term instead of multiplying it: every r = 0 twiddle of every stage is
// twiddle[(0*idx*twStep) % n] = twiddle[0], and that is exactly (1, -0)
// (conjugated: (1, +0)) for every smooth length. The tables hold no r = 0
// entry to drift; this is the one value they would have held.
func TestFFTUnitTwiddle(t *testing.T) {
	for n := 2; n <= 128; n++ {
		f := NewFFT(n)
		if f.factors == nil {
			continue
		}
		w := f.twiddle[0]
		if real(w) != 1 || imag(w) != 0 || !math.Signbit(imag(w)) || math.Signbit(imag(cmplx.Conj(w))) {
			t.Fatalf("n=%d: twiddle[0] = (%v, %v), want (1, -0)", n, real(w), imag(w))
		}
		size := n
		for d, st := range f.stages {
			if st.size != size || st.p*st.m != size || len(st.tw) != 2*(st.p-1)*size || len(st.cw) != len(st.tw) {
				t.Fatalf("n=%d stage %d: p=%d m=%d size=%d, %d/%d table entries", n, d, st.p, st.m, st.size, len(st.tw), len(st.cw))
			}
			for i := 0; i < len(st.tw); i += 2 {
				if st.cw[i] != st.tw[i] || math.Float64bits(st.cw[i+1]) != math.Float64bits(-st.tw[i+1]) {
					t.Fatalf("n=%d stage %d entry %d: cw is not the conjugate of tw", n, d, i/2)
				}
			}
			// idx = 0 of every r is twiddle[0] too; r >= 1 keeps its entry.
			for r := 1; r < st.p; r++ {
				if st.tw[2*(r-1)] != 1 || st.tw[2*(r-1)+1] != 0 {
					t.Fatalf("n=%d stage %d: idx=0 twiddle of r=%d is (%v,%v)", n, d, r, st.tw[2*(r-1)], st.tw[2*(r-1)+1])
				}
			}
			size = st.m
		}
	}
}

// TestFFTSplitPlanesBitIdentical pins the exported split-plane pair to the
// complex reference: ForwardSplitInto/InverseSplitInto must reproduce
// Forward/Inverse (fft_ref_test.go) bit for bit, on smooth lengths (the model's 48,
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
		f.Forward(want, src)
		f.ForwardSplitInto(gotRe, gotIm, srcRe, srcIm, s)
		check("forward")
		f.Inverse(want, src)
		f.InverseSplitInto(gotRe, gotIm, srcRe, srcIm, s)
		check("inverse")
	}
}
