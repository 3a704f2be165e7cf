package spectral

// Reference tests for the kernel layer: every pair-form or fused-batch
// entry point must stay within a bounded distance of an independent
// per-latitude complex reference, across truncations, serially and pooled,
// and the exactness the pair layout rests on (mirrored nodes, Legendre
// parity, +0 zonal imaginary parts) is checked bit for bit. The generic
// split FFT the ocean filter uses is bounded against the complex reference
// the same way.

import (
	"fmt"
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

// refEps is the accepted distance between a kernel and the reference, in
// units of ε·max|ref| of the output field (DESIGN.md §21). The pair
// kernels reassociate every Legendre and Fourier sum; the largest distance
// measured at R4/R5/R15/R21 is below 4.
const refEps = 16

// flatC views complex outputs as their real and imaginary parts.
func flatC(c []complex128) []float64 {
	out := make([]float64, 0, 2*len(c))
	for _, v := range c {
		out = append(out, real(v), imag(v))
	}
	return out
}

// maxAbs returns max|x|.
func maxAbs(xs ...[]float64) float64 {
	m := 0.0
	for _, x := range xs {
		for _, v := range x {
			m = math.Max(m, math.Abs(v))
		}
	}
	return m
}

// epsDist returns max|got-want| in units of ε·scale (0 when both are
// exactly equal, +Inf when scale is zero and got differs).
func epsDist(got, want []float64, scale float64) float64 {
	diff := 0.0
	for i := range want {
		diff = math.Max(diff, math.Abs(got[i]-want[i]))
	}
	if diff == 0 {
		return 0
	}
	return diff / (scale * 0x1p-52)
}

// worstEps tracks the largest distance a test saw, for its log line.
type worstEps struct {
	v    float64
	what string
}

// check fails t when got is farther than refEps·ε·max|want| from want.
func (w *worstEps) check(t *testing.T, what string, got, want []float64) {
	t.Helper()
	w.checkScale(t, what, got, want, maxAbs(want))
}

// checkScale is check relative to a given magnitude instead of max|want|.
func (w *worstEps) checkScale(t *testing.T, what string, got, want []float64, scale float64) {
	t.Helper()
	d := epsDist(got, want, scale)
	if d > refEps || math.IsNaN(d) {
		t.Fatalf("%s: %.2f ε·max|ref| from the reference (bound %d)", what, d, refEps)
	}
	if d > w.v {
		w.v, w.what = d, what
	}
}

// refKit is a self-contained serial reference implementation of every
// transform kernel, written in the per-latitude complex form (complex128
// Fourier rows, complex accumulators, the recursive complex FFT of
// fft_ref_test.go). It evaluates its own full P̄ and H tables at every
// Gaussian node with NewLegendre/EvalDeriv and sums every latitude in
// ascending order, so it shares nothing with the Transform's half tables,
// row pairs or parity split.
type refKit struct {
	tr          *Transform
	mu, w       []float64
	pl, hl      *Legendre
	p, h        [][]float64 // per latitude
	rows, rowsB []complex128
	c1, c2, c3  []complex128
	psi, chi    []complex128
}

func newRefKit(tr *Transform) *refKit {
	t := tr.Trunc
	mm := t.M + 1
	r := &refKit{
		tr:    tr,
		pl:    NewLegendre(t.M, t.NMax()+1),
		hl:    NewLegendre(t.M, t.NMax()),
		rows:  make([]complex128, tr.NLat*mm),
		rowsB: make([]complex128, tr.NLat*mm),
		c1:    make([]complex128, mm),
		c2:    make([]complex128, mm),
		c3:    make([]complex128, mm),
		psi:   make([]complex128, t.Count()),
		chi:   make([]complex128, t.Count()),
	}
	r.mu, r.w = sphere.GaussLegendre(tr.NLat)
	for _, mu := range r.mu {
		p := r.pl.Eval(nil, mu)
		r.p = append(r.p, p)
		r.h = append(r.h, EvalDeriv(nil, p, r.pl, t.M, t.NMax()))
	}
	return r
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
		wj := r.w[j]
		p := r.p[j]
		row := r.rows[j*mm : (j+1)*mm]
		for m := 0; m <= t.M; m++ {
			f := row[m] * complex(wj, 0)
			off := r.pl.Offset(m)
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
		p := r.p[j]
		for m := 0; m <= t.M; m++ {
			off := r.pl.Offset(m)
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
		p, h := r.p[j], r.h[j]
		for m := 0; m <= t.M; m++ {
			offP := r.pl.Offset(m)
			offH := r.hl.Offset(m)
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
		p, h := r.p[j], r.h[j]
		for m := 0; m <= t.M; m++ {
			offP := r.pl.Offset(m)
			offH := r.hl.Offset(m)
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
		wj := r.w[j] / (1 - r.mu[j]*r.mu[j]) * inva
		p, h := r.p[j], r.h[j]
		rowA := rowsA[j*mm : (j+1)*mm]
		rowB := rowsB[j*mm : (j+1)*mm]
		for m := 0; m <= t.M; m++ {
			fa := rowA[m] * complex(0, signA*(float64(m)*wj))
			fb := rowB[m] * complex(signB*wj, 0)
			offP := r.pl.Offset(m)
			offH := r.hl.Offset(m)
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

// refRungs are the truncations the reference tests run at: R4 and R5 (odd
// and even K+1), the paper's R15 and the R21 top rung.
var refRungs = []int{4, 5, 15, 21}

// newRefTransform builds the rung's transform, pooled when workers > 1.
func newRefTransform(t *testing.T, M, workers int) *Transform {
	t0 := Rhomboidal(M)
	nlat, nlon := t0.GridFor()
	tr := NewTransform(t0, nlat, nlon)
	if workers > 1 {
		pp := pool.New(workers)
		t.Cleanup(pp.Close)
		tr.SetPool(pp)
	}
	return tr
}

// TestKernelsMatchReference checks every *Into entry point against the
// serial per-latitude complex reference within refEps, across truncations,
// serially and pooled.
func TestKernelsMatchReference(t *testing.T) {
	var worst worstEps
	for _, M := range refRungs {
		for _, workers := range []int{1, 3} {
			tr := newRefTransform(t, M, workers)
			ws := tr.NewWorkspace()
			ref := newRefKit(tr)
			grids, specs := randFields(tr, int64(100*M+workers), 2, 2)
			n := tr.NLat * tr.NLon
			cnt := tr.Trunc.Count()
			tag := func(what string) string { return fmt.Sprintf("R%d w=%d %s", M, workers, what) }

			gotS, wantS := make([]complex128, cnt), make([]complex128, cnt)
			gotS2, wantS2 := make([]complex128, cnt), make([]complex128, cnt)
			gotG, wantG := make([]float64, n), make([]float64, n)
			gotG2, wantG2 := make([]float64, n), make([]float64, n)
			gotG3, wantG3 := make([]float64, n), make([]float64, n)

			tr.AnalyzeInto(gotS, grids[0], ws)
			ref.analyze(wantS, grids[0])
			worst.check(t, tag("Analyze"), flatC(gotS), flatC(wantS))
			tr.SynthesizeInto(gotG, specs[0], ws)
			ref.synthesize(wantG, specs[0])
			worst.check(t, tag("Synthesize"), gotG, wantG)
			tr.SynthesizeWithDerivsInto(gotG, gotG2, gotG3, specs[0], ws)
			ref.synthDerivs(wantG, wantG2, wantG3, specs[0])
			worst.check(t, tag("Derivs f"), gotG, wantG)
			worst.check(t, tag("Derivs dfdl"), gotG2, wantG2)
			worst.check(t, tag("Derivs hmu"), gotG3, wantG3)
			tr.SynthesizeUVInto(gotG, gotG2, specs[0], specs[1], ws)
			ref.synthUV(wantG, wantG2, specs[0], specs[1])
			worst.check(t, tag("UV U"), gotG, wantG)
			worst.check(t, tag("UV V"), gotG2, wantG2)
			for _, sg := range [][2]float64{{1, 1}, {1, -1}, {-1, 1}, {-1, -1}} {
				tr.AnalyzeDivFormInto(gotS, grids[0], grids[1], sg[0], sg[1], ws)
				ref.divForm(wantS, grids[0], grids[1], sg[0], sg[1])
				worst.check(t, tag(fmt.Sprintf("DivForm%v", sg)), flatC(gotS), flatC(wantS))
			}
			tr.VortDivTendInto(gotS, gotS2, grids[0], grids[1], ws)
			ref.vortDivTend(wantS, wantS2, grids[0], grids[1])
			worst.check(t, tag("VortDivTend vort"), flatC(gotS), flatC(wantS))
			worst.check(t, tag("VortDivTend div"), flatC(gotS2), flatC(wantS2))
		}
	}
	t.Logf("worst: %.2f ε·max|ref| (%s)", worst.v, worst.what)
}

// TestFusedBatchKernelsMatchReference checks the fused multi-field entry
// points field by field against the serial per-latitude reference.
func TestFusedBatchKernelsMatchReference(t *testing.T) {
	const nf = 3
	var worst worstEps
	for _, M := range refRungs {
		for _, workers := range []int{1, 3} {
			tr := newRefTransform(t, M, workers)
			ws := tr.NewWorkspaceMany(nf)
			ref := newRefKit(tr)
			grids, specs := randFields(tr, int64(900*M+workers), 2*nf, 2*nf)
			n := tr.NLat * tr.NLon
			cnt := tr.Trunc.Count()
			tag := func(what string, f int) string { return fmt.Sprintf("R%d w=%d %s f=%d", M, workers, what, f) }
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
				worst.check(t, tag("AnalyzeMany", f), flatC(outS[f]), flatC(want))
			}
			tr.SynthesizeManyInto(outG[:nf], specs[:nf], ws)
			for f := 0; f < nf; f++ {
				ref.synthesize(wantG, specs[f])
				worst.check(t, tag("SynthesizeMany", f), outG[f], wantG)
			}
			tr.SynthesizeUVManyInto(outG[:nf], outG[nf:], specs[:nf], specs[nf:], ws)
			for f := 0; f < nf; f++ {
				ref.synthUV(wantG, wantG2, specs[f], specs[nf+f])
				worst.check(t, tag("UVMany U", f), outG[f], wantG)
				worst.check(t, tag("UVMany V", f), outG[nf+f], wantG2)
			}
			tr.AnalyzeDivFormManyInto(outS[:nf], grids[:nf], grids[nf:], 1, -1, ws)
			for f := 0; f < nf; f++ {
				ref.divForm(want, grids[f], grids[nf+f], 1, -1)
				worst.check(t, tag("DivFormMany", f), flatC(outS[f]), flatC(want))
			}
			tr.AnalyzeDivPairManyInto(outS[:nf], outS[nf:], grids[:nf], grids[nf:], 1, -1, 1, 1, ws)
			for f := 0; f < nf; f++ {
				ref.fourier(ref.rows, grids[f])
				ref.fourier(ref.rowsB, grids[nf+f])
				ref.accumDiv(want, ref.rows, ref.rowsB, 1, -1)
				ref.accumDiv(want2, ref.rowsB, ref.rows, 1, 1)
				worst.check(t, tag("DivPairMany a", f), flatC(outS[f]), flatC(want))
				worst.check(t, tag("DivPairMany b", f), flatC(outS[nf+f]), flatC(want2))
			}
		}
	}
	t.Logf("worst: %.2f ε·max|ref| (%s)", worst.v, worst.what)
}

// TestLegendreParity proves, exactly, what storing half the table rows
// rests on: at every rung's Gaussian grid the nodes and weights mirror bit
// for bit, and Eval and EvalDeriv at -mu equal (-1)^(n-m) resp.
// -(-1)^(n-m) times their values at mu (bit for bit, except that H_0^0 is
// +0 at both nodes).
func TestLegendreParity(t *testing.T) {
	for _, M := range refRungs {
		tr := Rhomboidal(M)
		nlat, _ := tr.GridFor()
		mu, w := sphere.GaussLegendre(nlat)
		pl := NewLegendre(tr.M, tr.NMax()+1)
		hl := NewLegendre(tr.M, tr.NMax())
		for j := 0; j < nlat/2; j++ {
			jn := nlat - 1 - j
			if math.Float64bits(mu[jn]) != math.Float64bits(-mu[j]) || math.Float64bits(w[jn]) != math.Float64bits(w[j]) {
				t.Fatalf("R%d rows %d/%d: nodes %v/%v, weights %v/%v do not mirror", M, j, jn, mu[j], mu[jn], w[j], w[jn])
			}
			pS, pN := pl.Eval(nil, mu[j]), pl.Eval(nil, mu[jn])
			hS, hN := EvalDeriv(nil, pS, pl, tr.M, tr.NMax()), EvalDeriv(nil, pN, pl, tr.M, tr.NMax())
			for m := 0; m <= tr.M; m++ {
				for n := m; n <= tr.NMax(); n++ {
					sign := 1.0
					if (n-m)%2 == 1 {
						sign = -1
					}
					if pl.At(pN, m, n) != sign*pl.At(pS, m, n) || pl.At(pS, m, n) == 0 {
						t.Fatalf("R%d row %d P(%d,%d): %v at -mu, %v at mu", M, j, m, n, pl.At(pN, m, n), pl.At(pS, m, n))
					}
					if hl.At(hN, m, n) != -sign*hl.At(hS, m, n) || (hl.At(hS, m, n) == 0) != (m == 0 && n == 0) {
						t.Fatalf("R%d row %d H(%d,%d): %v at -mu, %v at mu", M, j, m, n, hl.At(hN, m, n), hl.At(hS, m, n))
					}
				}
			}
		}
	}
}

// TestZonalImagIsPlusZero: every analysis entry point leaves the imaginary
// part of each m = 0 coefficient of a real grid exactly +0 — a -0 or a
// rounding residue there would be stored as a checkpoint word.
func TestZonalImagIsPlusZero(t *testing.T) {
	const nf = 2
	for _, M := range refRungs {
		for _, workers := range []int{1, 3} {
			tr := newRefTransform(t, M, workers)
			ws := tr.NewWorkspaceMany(nf)
			grids, _ := randFields(tr, int64(7*M+workers), 2*nf, 0)
			out := make([][]complex128, 2*nf)
			for f := range out {
				out[f] = make([]complex128, tr.Trunc.Count())
			}
			check := func(what string, specs ...[]complex128) {
				t.Helper()
				for _, s := range specs {
					for n := 0; n <= tr.Trunc.K; n++ {
						if v := imag(s[tr.Trunc.Index(0, n)]); math.Float64bits(v) != 0 {
							t.Fatalf("R%d w=%d %s: Im(0,%d) = %v, want +0", M, workers, what, n, v)
						}
					}
				}
			}
			tr.AnalyzeInto(out[0], grids[0], ws)
			check("Analyze", out[0])
			tr.AnalyzeManyInto(out[:nf], grids[:nf], ws)
			check("AnalyzeMany", out[:nf]...)
			for _, sg := range []float64{1, -1} {
				tr.AnalyzeDivFormInto(out[0], grids[0], grids[1], sg, -sg, ws)
				check("DivForm", out[0])
				tr.AnalyzeDivFormManyInto(out[:nf], grids[:nf], grids[nf:], -sg, sg, ws)
				check("DivFormMany", out[:nf]...)
				tr.AnalyzeDivPairManyInto(out[:nf], out[nf:], grids[:nf], grids[nf:], sg, -1, -sg, 1, ws)
				check("DivPairMany", out...)
			}
			tr.VortDivTendInto(out[0], out[1], grids[0], grids[1], ws)
			check("VortDivTend", out[0], out[1])
		}
	}
}

// fftRowCases returns the (n, mmax) pairs the pair-FFT test runs over: a
// dense spectrum (the largest mmax < n/2) at every length class — smooth,
// single stage, non-smooth — and the sparse pairs the model's rungs use
// (r5, r9, R15, R21) plus one larger.
func fftRowCases() [][2]int {
	var cases [][2]int
	for _, n := range []int{4, 6, 7, 11, 12, 16, 30, 48, 54, 64, 90} {
		cases = append(cases, [2]int{n, (n - 1) / 2})
	}
	return append(cases, [][2]int{{16, 5}, {30, 9}, {48, 15}, {64, 21}, {128, 42}}...)
}

// TestFFTPairRowsMatchReference checks the pair transforms row by row
// against the recursive complex reference (fft_ref_test.go) within refEps,
// on random, zero, single-entry and alternating rows. The staging planes
// are NaN-poisoned before each synthesis, so a kernel that read the gap it
// is told not to would drag a NaN into the result.
func TestFFTPairRowsMatchReference(t *testing.T) {
	var worst worstEps
	for _, c := range fftRowCases() {
		n, mmax := c[0], c[1]
		f := NewFFT(n)
		s := f.NewScratch()
		rng := rand.New(rand.NewSource(int64(n)))
		rows := map[string][]float64{"random": nil, "random2": nil, "zero": nil, "single": nil, "alternating": nil}
		for name := range rows {
			rows[name] = make([]float64, n)
		}
		for i := 0; i < n; i++ {
			rows["random"][i], rows["random2"][i] = rng.NormFloat64(), 1e3*rng.NormFloat64()
			rows["alternating"][i] = 1.5 * float64(1-2*(i%2))
		}
		rows["single"][n/3] = -2.75
		for _, pr := range [][2]string{{"random", "random2"}, {"random2", "zero"}, {"single", "alternating"}, {"zero", "random"}} {
			x, y := rows[pr[0]], rows[pr[1]]
			tag := fmt.Sprintf("n=%d mmax=%d %s/%s", n, mmax, pr[0], pr[1])
			xRe, xIm, yRe, yIm := make([]float64, mmax+1), make([]float64, mmax+1), make([]float64, mmax+1), make([]float64, mmax+1)
			f.analyzePair(xRe, xIm, yRe, yIm, x, y, s)
			if math.Float64bits(xIm[0]) != 0 || math.Float64bits(yIm[0]) != 0 {
				t.Fatalf("%s: m = 0 imaginary parts %v, %v, want +0", tag, xIm[0], yIm[0])
			}
			wantX, wantY := make([]complex128, mmax+1), make([]complex128, mmax+1)
			f.AnalyzeReal(wantX, x, mmax)
			f.AnalyzeReal(wantY, y, mmax)
			gotX, gotY := make([]complex128, mmax+1), make([]complex128, mmax+1)
			for m := range gotX {
				gotX[m], gotY[m] = complex(xRe[m], xIm[m]), complex(yRe[m], yIm[m])
			}
			// One transform carries both rows, so its rounding scales with
			// the larger of the two inputs (which bounds every |F_m|).
			worst.checkScale(t, tag+" analyze", append(flatC(gotX), flatC(gotY)...),
				append(flatC(wantX), flatC(wantY)...), maxAbs(x, y))

			// Synthesis of the reference spectra back onto two rows.
			for i := range s.bufRe {
				s.bufRe[i], s.bufIm[i] = math.NaN(), math.NaN()
			}
			aRe, aIm, bRe, bIm := make([]float64, mmax+1), make([]float64, mmax+1), make([]float64, mmax+1), make([]float64, mmax+1)
			for m := range wantX {
				aRe[m], aIm[m], bRe[m], bIm[m] = real(wantX[m]), imag(wantX[m]), real(wantY[m]), imag(wantY[m])
			}
			gx, gy := make([]float64, n), make([]float64, n)
			f.synthesizePair(gx, gy, aRe, aIm, bRe, bIm, s)
			wx, wy := make([]float64, n), make([]float64, n)
			f.SynthesizeReal(wx, wantX)
			f.SynthesizeReal(wy, wantY)
			worst.check(t, tag+" synthesize", append(gx, gy...), append(wx, wy...))
		}
	}
	t.Logf("worst: %.2f ε·max|ref| (%s)", worst.v, worst.what)
}

// TestFFTTwiddleTables pins the factored stage layout: stage d of radix p
// over blocks of p*m holds (p-1)*m twiddle records, record k of r is
// twiddle[(r*k*n/size) % n] — so k = 0 is exactly (1, -0) — and cw is
// exactly the conjugate of tw. The leaf stage has m = 1 and no tables.
func TestFFTTwiddleTables(t *testing.T) {
	for n := 2; n <= 128; n++ {
		f := NewFFT(n)
		if f.factors == nil {
			continue
		}
		size := n
		for d, st := range f.stages {
			if st.p != f.factors[d] || st.p*st.m != size {
				t.Fatalf("n=%d stage %d: p=%d m=%d over size %d", n, d, st.p, st.m, size)
			}
			if st.m == 1 {
				if st.tw != nil || st.cw != nil {
					t.Fatalf("n=%d: the leaf stage has %d/%d table entries, want none", n, len(st.tw), len(st.cw))
				}
				size = st.m
				continue
			}
			if len(st.tw) != 2*(st.p-1)*st.m || len(st.cw) != len(st.tw) {
				t.Fatalf("n=%d stage %d: %d/%d table entries, want %d", n, d, len(st.tw), len(st.cw), 2*(st.p-1)*st.m)
			}
			for k := 0; k < st.m; k++ {
				for r := 1; r < st.p; r++ {
					o := 2 * (k*(st.p-1) + r - 1)
					w := f.twiddle[(r*k*(n/size))%n]
					if math.Float64bits(st.tw[o]) != math.Float64bits(real(w)) || math.Float64bits(st.tw[o+1]) != math.Float64bits(imag(w)) {
						t.Fatalf("n=%d stage %d k=%d r=%d: (%v,%v), want %v", n, d, k, r, st.tw[o], st.tw[o+1], w)
					}
					if st.cw[o] != st.tw[o] || math.Float64bits(st.cw[o+1]) != math.Float64bits(-st.tw[o+1]) {
						t.Fatalf("n=%d stage %d k=%d r=%d: cw is not the conjugate of tw", n, d, k, r)
					}
					if k == 0 && (st.tw[o] != 1 || st.tw[o+1] != 0 || !math.Signbit(st.tw[o+1])) {
						t.Fatalf("n=%d stage %d: k=0 twiddle of r=%d is (%v,%v), want (1,-0)", n, d, r, st.tw[o], st.tw[o+1])
					}
				}
			}
			size = st.m
		}
		if size != 1 {
			t.Fatalf("n=%d: the last stage has m=%d, want a leaf (m=1)", n, size)
		}
	}
}

// TestFFTSplitPlanesMatchReference bounds the exported split-plane pair
// against the complex reference (fft_ref_test.go): ForwardSplitInto and
// InverseSplitInto must be within refEps·ε·max|ref| of Forward/Inverse.
// The lengths put every radix in a stage: 16 (4 over 4), 25 (5 over 5), 30
// (5, 3 over a radix-2 leaf: the r9 rung's row), 48 (4, 4 over 3), 64 and
// 128 (the model's rows, 128 over a radix-2 leaf) and the non-smooth 22
// (direct fallback).
func TestFFTSplitPlanesMatchReference(t *testing.T) {
	var worst worstEps
	for _, n := range []int{16, 25, 30, 48, 64, 128, 22} {
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
		f.Forward(want, src)
		f.ForwardSplitInto(gotRe, gotIm, srcRe, srcIm, s)
		got := func() []complex128 {
			c := make([]complex128, n)
			for i := range c {
				c[i] = complex(gotRe[i], gotIm[i])
			}
			return c
		}
		worst.check(t, fmt.Sprintf("n=%d forward", n), flatC(got()), flatC(want))
		f.Inverse(want, src)
		f.InverseSplitInto(gotRe, gotIm, srcRe, srcIm, s)
		worst.check(t, fmt.Sprintf("n=%d inverse", n), flatC(got()), flatC(want))
	}
	t.Logf("worst: %.2f ε·max|ref| (%s)", worst.v, worst.what)
}
