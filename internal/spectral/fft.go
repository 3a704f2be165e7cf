// Package spectral implements the spectral-transform machinery of the FOAM
// atmosphere: a mixed-radix FFT, associated Legendre functions, and
// spherical-harmonic analysis/synthesis under rhomboidal (or triangular)
// truncation, together with the derivative operators the dynamical core
// needs.
package spectral

import (
	"fmt"
	"math"
	"math/cmplx"
)

// FFT computes forward and inverse discrete Fourier transforms of a fixed
// length n on split re/im planes. Lengths whose prime factors are 2, 3, or
// 5 use an O(n log n) mixed-radix Cooley-Tukey algorithm; other lengths
// fall back to a direct O(n^2) transform (correct, just slower — the model
// grids are all 2/3/5-smooth).
// An FFT is safe for concurrent use: all fields are read-only after NewFFT
// and working storage comes from the caller's FFTScratch.
type FFT struct {
	n       int
	factors []int
	twiddle []complex128 // e^{-2*pi*i*k/n} for k in [0,n)
	stages  []fftStage   // per-depth split twiddle tables
	leafPos []int        // leafPos[j0]: start of the leaf block that reads src[j0+r*n/p]
}

// fftStage holds the precomputed butterfly twiddles for one recursion depth
// of the mixed-radix transform. At depth d a size-long block combines p
// subsequences of length m; output idx = q*m+k takes subsequence r times
// W_size^(r*idx) = W_size^(r*k) * W_p^(r*q), so the kernels multiply entry k
// of subsequence r >= 1 by W_size^(r*k) once and then apply an exact p-point
// DFT. The tables hold one record per k, tw[2(p-1)*k:] = (re, im) of
// r = 1..p-1, read as one sequential stream with no modulo (cw holds exactly
// cmplx.Conj of each twiddle, for the inverse). The k = 0 record is
// twiddle[0] = (1, -0). The leaf stage (m = 1) has no twiddle, so its
// tables are nil.
type fftStage struct {
	p, m   int
	tw, cw []float64 // length 2(p-1)*m each; nil at the leaf
}

// NewFFT creates a transform of length n.
func NewFFT(n int) *FFT {
	if n < 1 {
		panic(fmt.Sprintf("spectral: FFT length %d must be positive", n))
	}
	f := &FFT{n: n}
	f.twiddle = make([]complex128, n)
	for k := 0; k < n; k++ {
		f.twiddle[k] = cmplx.Exp(complex(0, -2*math.Pi*float64(k)/float64(n)))
	}
	m := n
	for _, p := range []int{5, 4, 3, 2} {
		for m%p == 0 {
			f.factors = append(f.factors, p)
			m /= p
		}
	}
	if m != 1 {
		f.factors = nil // not smooth; use direct DFT
	}
	size := n
	for _, p := range f.factors {
		st := fftStage{p: p, m: size / p}
		if st.m > 1 { // the leaf takes no twiddle
			st.tw = make([]float64, 2*(p-1)*st.m)
			st.cw = make([]float64, 2*(p-1)*st.m)
			twStep := n / size
			for k := 0; k < st.m; k++ {
				for r := 1; r < p; r++ {
					w := f.twiddle[(r*k*twStep)%n]
					o := 2 * (k*(p-1) + r - 1)
					st.tw[o], st.tw[o+1] = real(w), imag(w)
					st.cw[o], st.cw[o+1] = real(w), imag(cmplx.Conj(w))
				}
			}
		}
		f.stages = append(f.stages, st)
		size = st.m
	}
	if f.factors != nil {
		// Mixed-radix digit reversal, kept at leaf-block granularity: the
		// decimation-in-time leaf that starts at output offset dstOff reads
		// src[srcOff], src[srcOff+stride], ... with stride = n/p.
		f.leafPos = make([]int, n/f.factors[len(f.factors)-1])
		var build func(dstOff, srcOff, stride, depth, size int)
		build = func(dstOff, srcOff, stride, depth, size int) {
			if depth == len(f.factors)-1 {
				f.leafPos[srcOff] = dstOff
				return
			}
			p := f.factors[depth]
			m := size / p
			for r := 0; r < p; r++ {
				build(dstOff+r*m, srcOff+r*stride, stride*p, depth+1, m)
			}
		}
		build(0, 0, 1, 0, n)
	}
	return f
}

// N returns the transform length.
func (f *FFT) N() int { return f.n }

// FFTScratch holds the working storage of the split transforms: the pair
// synthesis staging planes (buf), the pair analysis output planes (out) and
// the ping-pong planes of the stage sweep (cp). One scratch serves one
// concurrent caller; per-worker use requires one scratch per worker (see
// Workspace).
type FFTScratch struct {
	bufRe, bufIm []float64
	outRe, outIm []float64
	cpRe, cpIm   []float64
}

// NewScratch allocates scratch sized for this transform length.
func (f *FFT) NewScratch() *FFTScratch {
	return &FFTScratch{
		bufRe: make([]float64, f.n), bufIm: make([]float64, f.n),
		outRe: make([]float64, f.n), outIm: make([]float64, f.n),
		cpRe: make([]float64, f.n), cpIm: make([]float64, f.n),
	}
}

// fftRole tells the stage sweep whether it runs the inverse transform and
// which source entries are structural zeros: entries j with live < j <
// n-live are the synthesis gap above mmax that the caller has not even
// written, and are never read; live = n means every entry is read.
type fftRole struct {
	inverse bool
	live    int
}

// iterSplit is the mixed-radix decimation-in-time transform on the split
// re/im layout: the leaf stage reads src through the digit reversal, then
// the stages combine bottom-up over the same contiguous blocks the
// reference recursion (fft_ref_test.go) produces, ping-ponging between the
// x and y planes so that the last stage lands in x. src is only read; x, y
// and src must not overlap.
//
// Each stage is a factored butterfly: one twiddle multiply per subsequence
// r >= 1 and entry k, then an exact p-point DFT — adds and ±i swaps for
// radix 2 and 4, real constants for radix 3 and 5. The inverse uses the
// conjugate tables and the mirrored p-point DFT, which is the forward one
// with outputs q and p-q exchanged. Every product is rounded on its own
// (the float64 conversions) so no fused multiply-add can form and every
// architecture computes the same bits. The sums are reassociated against
// the complex reference, so the result is within a few ε of it, not equal
// (DESIGN.md §21). All of it assumes finite inputs.
func (f *FFT) iterSplit(xRe, xIm, yRe, yIm, srcRe, srcIm []float64, role fftRole) {
	last := len(f.stages) - 1
	if last%2 == 1 {
		xRe, xIm, yRe, yIm = yRe, yIm, xRe, xIm
	}
	inv := role.inverse
	for d := last; d >= 0; d-- {
		st := &f.stages[d]
		if d == last {
			lo, hi := role.live, f.n-role.live
			switch st.p {
			case 2:
				fftLeaf2(xRe, xIm, srcRe, srcIm, f.leafPos, lo, hi)
			case 3:
				fftLeaf3(xRe, xIm, srcRe, srcIm, f.leafPos, lo, hi, inv)
			case 4:
				fftLeaf4(xRe, xIm, srcRe, srcIm, f.leafPos, lo, hi, inv)
			case 5:
				fftLeaf5(xRe, xIm, srcRe, srcIm, f.leafPos, lo, hi, inv)
			}
			continue
		}
		tw := st.tw
		if inv {
			tw = st.cw
		}
		switch st.p {
		case 2:
			fftStage2(yRe, yIm, xRe, xIm, tw, st.m)
		case 3:
			fftStage3(yRe, yIm, xRe, xIm, tw, st.m, inv)
		case 4:
			fftStage4(yRe, yIm, xRe, xIm, tw, st.m, inv)
		case 5:
			fftStage5(yRe, yIm, xRe, xIm, tw, st.m, inv)
		}
		xRe, xIm, yRe, yIm = yRe, yIm, xRe, xIm
	}
}

// The p-point DFT constants: sin 60°, cos and sin of 72° and 144°.
const (
	fftS3  = 0.86602540378443864676372317075293618347
	fftC51 = 0.30901699437494742410229341718281905886
	fftC52 = -0.80901699437494742410229341718281905886
	fftS51 = 0.95105651629515357211643933337938214340
	fftS52 = 0.58778525229247312916870595463907276860
)

// fftOrder returns the output offsets q = 1..p-1 of the p-point DFT: the
// inverse is the forward DFT with outputs q and p-q exchanged.
func fftOrder(p int, inv bool) (q1, q2, q3, q4 int) {
	if inv {
		return p - 1, p - 2, p - 3, p - 4
	}
	return 1, 2, 3, 4
}

// The fftLeafP kernels are the first stage: m = 1, so every twiddle is 1
// and the block at output offset pos[j0] is the bare p-point DFT of
// src[j0+r*S], S = n/p. A term whose source index lies strictly between lo
// and hi is a structural zero: it is never read and enters as +0.

func fftLeaf2(dRe, dIm, sRe, sIm []float64, pos []int, lo, hi int) {
	S := len(pos)
	for j0, o := range pos {
		var t0r, t0i, t1r, t1i float64
		if j0 <= lo || j0 >= hi {
			t0r, t0i = sRe[j0], sIm[j0]
		}
		if j1 := j0 + S; j1 <= lo || j1 >= hi {
			t1r, t1i = sRe[j1], sIm[j1]
		}
		dRe[o], dIm[o] = t0r+t1r, t0i+t1i
		dRe[o+1], dIm[o+1] = t0r-t1r, t0i-t1i
	}
}

func fftLeaf3(dRe, dIm, sRe, sIm []float64, pos []int, lo, hi int, inv bool) {
	q1, q2, _, _ := fftOrder(3, inv)
	S := len(pos)
	for j0, o := range pos {
		var t0r, t0i, t1r, t1i, t2r, t2i float64
		if j0 <= lo || j0 >= hi {
			t0r, t0i = sRe[j0], sIm[j0]
		}
		if j1 := j0 + S; j1 <= lo || j1 >= hi {
			t1r, t1i = sRe[j1], sIm[j1]
		}
		if j2 := j0 + 2*S; j2 <= lo || j2 >= hi {
			t2r, t2i = sRe[j2], sIm[j2]
		}
		sr, si := t1r+t2r, t1i+t2i
		mr, mi := t0r-float64(0.5*sr), t0i-float64(0.5*si)
		br, bi := float64(fftS3*(t1r-t2r)), float64(fftS3*(t1i-t2i))
		dRe[o], dIm[o] = t0r+sr, t0i+si
		dRe[o+q1], dIm[o+q1] = mr+bi, mi-br
		dRe[o+q2], dIm[o+q2] = mr-bi, mi+br
	}
}

func fftLeaf4(dRe, dIm, sRe, sIm []float64, pos []int, lo, hi int, inv bool) {
	q1, _, q3, _ := fftOrder(4, inv)
	S := len(pos)
	for j0, o := range pos {
		var t0r, t0i, t1r, t1i, t2r, t2i, t3r, t3i float64
		if j0 <= lo || j0 >= hi {
			t0r, t0i = sRe[j0], sIm[j0]
		}
		if j1 := j0 + S; j1 <= lo || j1 >= hi {
			t1r, t1i = sRe[j1], sIm[j1]
		}
		if j2 := j0 + 2*S; j2 <= lo || j2 >= hi {
			t2r, t2i = sRe[j2], sIm[j2]
		}
		if j3 := j0 + 3*S; j3 <= lo || j3 >= hi {
			t3r, t3i = sRe[j3], sIm[j3]
		}
		ar, ai := t0r+t2r, t0i+t2i
		br, bi := t0r-t2r, t0i-t2i
		cr, ci := t1r+t3r, t1i+t3i
		er, ei := t1r-t3r, t1i-t3i
		dRe[o], dIm[o] = ar+cr, ai+ci
		dRe[o+2], dIm[o+2] = ar-cr, ai-ci
		dRe[o+q1], dIm[o+q1] = br+ei, bi-er
		dRe[o+q3], dIm[o+q3] = br-ei, bi+er
	}
}

func fftLeaf5(dRe, dIm, sRe, sIm []float64, pos []int, lo, hi int, inv bool) {
	q1, q2, q3, q4 := fftOrder(5, inv)
	S := len(pos)
	for j0, o := range pos {
		var t0r, t0i, t1r, t1i, t2r, t2i, t3r, t3i, t4r, t4i float64
		if j0 <= lo || j0 >= hi {
			t0r, t0i = sRe[j0], sIm[j0]
		}
		if j1 := j0 + S; j1 <= lo || j1 >= hi {
			t1r, t1i = sRe[j1], sIm[j1]
		}
		if j2 := j0 + 2*S; j2 <= lo || j2 >= hi {
			t2r, t2i = sRe[j2], sIm[j2]
		}
		if j3 := j0 + 3*S; j3 <= lo || j3 >= hi {
			t3r, t3i = sRe[j3], sIm[j3]
		}
		if j4 := j0 + 4*S; j4 <= lo || j4 >= hi {
			t4r, t4i = sRe[j4], sIm[j4]
		}
		fftDFT5(dRe, dIm, o, o+q1, o+q2, o+q3, o+q4, t0r, t0i, t1r, t1i, t2r, t2i, t3r, t3i, t4r, t4i)
	}
}

// fftDFT5 writes the forward 5-point DFT of t0..t4 to d[y0], d[y1], ...,
// d[y4]: with s = t1+t4, t2+t3 and e = t1-t4, t2-t3, output q is
// t0 + Σ cos·s - i·Σ sin·e for q = 1, 2 and its mirror for q = 4, 3.
func fftDFT5(dRe, dIm []float64, y0, y1, y2, y3, y4 int, t0r, t0i, t1r, t1i, t2r, t2i, t3r, t3i, t4r, t4i float64) {
	s1r, s1i := t1r+t4r, t1i+t4i
	s2r, s2i := t2r+t3r, t2i+t3i
	e1r, e1i := t1r-t4r, t1i-t4i
	e2r, e2i := t2r-t3r, t2i-t3i
	a1r := t0r + float64(fftC51*s1r) + float64(fftC52*s2r)
	a1i := t0i + float64(fftC51*s1i) + float64(fftC52*s2i)
	a2r := t0r + float64(fftC52*s1r) + float64(fftC51*s2r)
	a2i := t0i + float64(fftC52*s1i) + float64(fftC51*s2i)
	b1r := float64(fftS51*e1r) + float64(fftS52*e2r)
	b1i := float64(fftS51*e1i) + float64(fftS52*e2i)
	b2r := float64(fftS52*e1r) - float64(fftS51*e2r)
	b2i := float64(fftS52*e1i) - float64(fftS51*e2i)
	dRe[y0], dIm[y0] = t0r+s1r+s2r, t0i+s1i+s2i
	dRe[y1], dIm[y1] = a1r+b1i, a1i-b1r
	dRe[y4], dIm[y4] = a1r-b1i, a1i+b1r
	dRe[y2], dIm[y2] = a2r+b2i, a2i-b2r
	dRe[y3], dIm[y3] = a2r-b2i, a2i+b2r
}

// The fftStageP kernels combine one later stage: for each size-long block
// and each k < m, subsequence r >= 1 is multiplied by its twiddle record
// tw[2(p-1)*k:] and the p-point DFT writes outputs q*m+k.

func fftStage2(dRe, dIm, sRe, sIm, tw []float64, m int) {
	size := 2 * m
	for b := 0; b < len(sRe); b += size {
		xr, xi := sRe[b:b+size], sIm[b:b+size]
		yr, yi := dRe[b:b+size], dIm[b:b+size]
		for k := 0; k < m; k++ {
			w := (*[2]float64)(tw[2*k:])
			x1r, x1i := xr[k+m], xi[k+m]
			t1r := float64(w[0]*x1r) - float64(w[1]*x1i)
			t1i := float64(w[0]*x1i) + float64(w[1]*x1r)
			t0r, t0i := xr[k], xi[k]
			yr[k], yi[k] = t0r+t1r, t0i+t1i
			yr[k+m], yi[k+m] = t0r-t1r, t0i-t1i
		}
	}
}

func fftStage3(dRe, dIm, sRe, sIm, tw []float64, m int, inv bool) {
	q1, q2, _, _ := fftOrder(3, inv)
	q1, q2 = q1*m, q2*m
	size := 3 * m
	for b := 0; b < len(sRe); b += size {
		xr, xi := sRe[b:b+size], sIm[b:b+size]
		yr, yi := dRe[b:b+size], dIm[b:b+size]
		for k := 0; k < m; k++ {
			w := (*[4]float64)(tw[4*k:])
			x1r, x1i := xr[k+m], xi[k+m]
			x2r, x2i := xr[k+2*m], xi[k+2*m]
			t1r := float64(w[0]*x1r) - float64(w[1]*x1i)
			t1i := float64(w[0]*x1i) + float64(w[1]*x1r)
			t2r := float64(w[2]*x2r) - float64(w[3]*x2i)
			t2i := float64(w[2]*x2i) + float64(w[3]*x2r)
			t0r, t0i := xr[k], xi[k]
			sr, si := t1r+t2r, t1i+t2i
			mr, mi := t0r-float64(0.5*sr), t0i-float64(0.5*si)
			br, bi := float64(fftS3*(t1r-t2r)), float64(fftS3*(t1i-t2i))
			yr[k], yi[k] = t0r+sr, t0i+si
			yr[k+q1], yi[k+q1] = mr+bi, mi-br
			yr[k+q2], yi[k+q2] = mr-bi, mi+br
		}
	}
}

func fftStage4(dRe, dIm, sRe, sIm, tw []float64, m int, inv bool) {
	q1, _, q3, _ := fftOrder(4, inv)
	q1, q3 = q1*m, q3*m
	size := 4 * m
	for b := 0; b < len(sRe); b += size {
		xr, xi := sRe[b:b+size], sIm[b:b+size]
		yr, yi := dRe[b:b+size], dIm[b:b+size]
		for k := 0; k < m; k++ {
			w := (*[6]float64)(tw[6*k:])
			x1r, x1i := xr[k+m], xi[k+m]
			x2r, x2i := xr[k+2*m], xi[k+2*m]
			x3r, x3i := xr[k+3*m], xi[k+3*m]
			t1r := float64(w[0]*x1r) - float64(w[1]*x1i)
			t1i := float64(w[0]*x1i) + float64(w[1]*x1r)
			t2r := float64(w[2]*x2r) - float64(w[3]*x2i)
			t2i := float64(w[2]*x2i) + float64(w[3]*x2r)
			t3r := float64(w[4]*x3r) - float64(w[5]*x3i)
			t3i := float64(w[4]*x3i) + float64(w[5]*x3r)
			t0r, t0i := xr[k], xi[k]
			ar, ai := t0r+t2r, t0i+t2i
			br, bi := t0r-t2r, t0i-t2i
			cr, ci := t1r+t3r, t1i+t3i
			er, ei := t1r-t3r, t1i-t3i
			yr[k], yi[k] = ar+cr, ai+ci
			yr[k+2*m], yi[k+2*m] = ar-cr, ai-ci
			yr[k+q1], yi[k+q1] = br+ei, bi-er
			yr[k+q3], yi[k+q3] = br-ei, bi+er
		}
	}
}

func fftStage5(dRe, dIm, sRe, sIm, tw []float64, m int, inv bool) {
	q1, q2, q3, q4 := fftOrder(5, inv)
	size := 5 * m
	for b := 0; b < len(sRe); b += size {
		xr, xi := sRe[b:b+size], sIm[b:b+size]
		yr, yi := dRe[b:b+size], dIm[b:b+size]
		for k := 0; k < m; k++ {
			w := (*[8]float64)(tw[8*k:])
			x1r, x1i := xr[k+m], xi[k+m]
			x2r, x2i := xr[k+2*m], xi[k+2*m]
			x3r, x3i := xr[k+3*m], xi[k+3*m]
			x4r, x4i := xr[k+4*m], xi[k+4*m]
			t1r := float64(w[0]*x1r) - float64(w[1]*x1i)
			t1i := float64(w[0]*x1i) + float64(w[1]*x1r)
			t2r := float64(w[2]*x2r) - float64(w[3]*x2i)
			t2i := float64(w[2]*x2i) + float64(w[3]*x2r)
			t3r := float64(w[4]*x3r) - float64(w[5]*x3i)
			t3i := float64(w[4]*x3i) + float64(w[5]*x3r)
			t4r := float64(w[6]*x4r) - float64(w[7]*x4i)
			t4i := float64(w[6]*x4i) + float64(w[7]*x4r)
			fftDFT5(yr, yi, k, k+q1*m, k+q2*m, k+q3*m, k+q4*m, xr[k], xi[k], t1r, t1i, t2r, t2i, t3r, t3i, t4r, t4i)
		}
	}
}

// directSplit is the non-smooth-length fallback on the split layout: the
// plain O(n^2) sum. Structural zeros (role.live) are not read.
func (f *FFT) directSplit(dstRe, dstIm, srcRe, srcIm []float64, role fftRole) {
	for k := 0; k < f.n; k++ {
		var sumRe, sumIm float64
		for j := 0; j < f.n; j++ {
			if j > role.live && j < f.n-role.live {
				continue
			}
			t := (j * k) % f.n
			w := f.twiddle[t]
			if role.inverse {
				w = cmplx.Conj(w)
			}
			wr, wi := real(w), imag(w)
			tre, tim := srcRe[j], srcIm[j]
			sumRe += float64(wr*tre) - float64(wi*tim)
			sumIm += float64(wr*tim) + float64(wi*tre)
		}
		dstRe[k] = sumRe
		dstIm[k] = sumIm
	}
}

// transformSplit runs the unnormalized transform on split planes into dst.
// dst, src, and scratch must be pairwise non-overlapping; src is read-only
// and, under role.live, only where the role says it is written.
func (f *FFT) transformSplit(dstRe, dstIm, srcRe, srcIm []float64, s *FFTScratch, role fftRole) {
	if f.factors == nil {
		f.directSplit(dstRe, dstIm, srcRe, srcIm, role)
		return
	}
	f.iterSplit(dstRe, dstIm, s.cpRe, s.cpIm, srcRe, srcIm, role)
}

// ForwardSplitInto computes dst = DFT(src), unnormalized, on split re/im
// planes: dst[k] = sum_j src[j] * e^{-2*pi*i*j*k/n}, bit-identical to the
// complex reference plane for plane. All four planes have length n; dst,
// src and the scratch must not overlap, and src is only read.
func (f *FFT) ForwardSplitInto(dstRe, dstIm, srcRe, srcIm []float64, s *FFTScratch) {
	f.checkSplitPlanes(dstRe, dstIm, srcRe, srcIm)
	f.transformSplit(dstRe, dstIm, srcRe, srcIm, s, fftRole{live: f.n})
}

// InverseSplitInto computes dst[j] = (1/n) * sum_k src[k] * e^{+2*pi*i*j*k/n}
// on split re/im planes. The 1/n normalization reconstructs the complex
// product so each plane rounds exactly as dst[i] *= complex(1/n, 0).
func (f *FFT) InverseSplitInto(dstRe, dstIm, srcRe, srcIm []float64, s *FFTScratch) {
	f.checkSplitPlanes(dstRe, dstIm, srcRe, srcIm)
	f.transformSplit(dstRe, dstIm, srcRe, srcIm, s, fftRole{inverse: true, live: f.n})
	inv := complex(1/float64(f.n), 0)
	for i := range dstRe {
		v := complex(dstRe[i], dstIm[i]) * inv
		dstRe[i], dstIm[i] = real(v), imag(v)
	}
}

// checkSplitPlanes panics on a plane of the wrong length or a dst plane
// sharing its first element with a src plane.
func (f *FFT) checkSplitPlanes(dstRe, dstIm, srcRe, srcIm []float64) {
	if len(dstRe) != f.n || len(dstIm) != f.n || len(srcRe) != f.n || len(srcIm) != f.n {
		panic("spectral: FFT buffer length mismatch")
	}
	for _, d := range [2][]float64{dstRe, dstIm} {
		for _, s := range [2][]float64{srcRe, srcIm} {
			if &d[0] == &s[0] {
				panic("spectral: split FFT dst/src must not alias")
			}
		}
	}
}

// analyzePair computes the first mmax+1 complex Fourier coefficients of
// two real periodic rows x and y, F_m = (1/n) * sum_j x_j e^{-i m lambda_j},
// with one complex transform of z = x + i*y: with Z = DFT(z),
// X_m = (Z_m + conj(Z_{n-m}))/2 and Y_m = (Z_m - conj(Z_{n-m}))/(2i). The
// m = 0 imaginary parts are stored as +0 (DESIGN.md §21). mmax = len(xRe)-1
// must be < n/2 so the coefficients are unaliased.
func (f *FFT) analyzePair(xRe, xIm, yRe, yIm, x, y []float64, s *FFTScratch) {
	n, mmax := f.n, len(xRe)-1
	if len(x) != n || len(y) != n || 2*mmax >= n {
		panic(fmt.Sprintf("spectral: analyzePair rows %d/%d, mmax %d for n=%d", len(x), len(y), mmax, n))
	}
	f.transformSplit(s.outRe, s.outIm, x, y, s, fftRole{live: n})
	inv := 1 / float64(n)
	h := 0.5 * inv
	zr, zi := s.outRe, s.outIm
	xRe[0], xIm[0] = zr[0]*inv, 0
	yRe[0], yIm[0] = zi[0]*inv, 0
	for m := 1; m <= mmax; m++ {
		a, b, c, d := zr[m], zi[m], zr[n-m], zi[n-m]
		xRe[m], xIm[m] = (a+c)*h, (b-d)*h
		yRe[m], yIm[m] = (b+d)*h, (c-a)*h
	}
}

// synthesizePair reconstructs two real rows from their non-negative Fourier
// coefficients, x_j = Re(A_0) + 2*sum_{m=1..mmax} Re(A_m e^{i m lambda_j})
// and likewise y from B, with one inverse complex transform of
// C_m = A_m + i*B_m (and C_{n-m} = conj(A_m) + i*conj(B_m)): the real plane
// of the result is x, the imaginary plane y. The gap between mmax and
// n-mmax is neither written nor read. x and y must not overlap the scratch.
func (f *FFT) synthesizePair(x, y, aRe, aIm, bRe, bIm []float64, s *FFTScratch) {
	n, mmax := f.n, len(aRe)-1
	if len(x) != n || len(y) != n || 2*mmax >= n {
		panic(fmt.Sprintf("spectral: synthesizePair rows %d/%d, mmax %d for n=%d", len(x), len(y), mmax, n))
	}
	cr, ci := s.bufRe, s.bufIm
	cr[0], ci[0] = aRe[0], bRe[0]
	for m := 1; m <= mmax; m++ {
		cr[m], ci[m] = aRe[m]-bIm[m], aIm[m]+bRe[m]
		cr[n-m], ci[n-m] = aRe[m]+bIm[m], bRe[m]-aIm[m]
	}
	f.transformSplit(x, y, cr, ci, s, fftRole{inverse: true, live: mmax})
}
