// Package spectral implements the spectral-transform machinery of the FOAM
// atmosphere: a mixed-radix FFT, associated Legendre functions, and
// spherical-harmonic analysis/synthesis under rhomboidal (or triangular)
// truncation, together with the derivative operators the dynamical core
// needs.
//
//foam:deterministic
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
// of the mixed-radix transform. At depth d the combine step of a size-long
// block multiplies subsequence r's entry idx by twiddle[(r*idx*twStep) % n];
// the tables flatten that lookup into one record per output,
// tw[2(p-1)*idx:] = (re, im) of r = 1..p-1, so the innermost loop reads its
// twiddles as one sequential stream with no modulo and no conjugation
// branch (cw holds exactly cmplx.Conj of each twiddle, for the inverse).
// r = 0 has no entry: its twiddle is twiddle[0] = (1, -0) at every idx of
// every stage, and the kernels add that term instead of multiplying it.
type fftStage struct {
	p, m, size int
	tw, cw     []float64 // length 2(p-1)*size each
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
		st := fftStage{p: p, m: size / p, size: size,
			tw: make([]float64, 2*(p-1)*size),
			cw: make([]float64, 2*(p-1)*size),
		}
		twStep := n / size
		for idx := 0; idx < size; idx++ {
			for r := 1; r < p; r++ {
				w := f.twiddle[(r*idx*twStep)%n]
				o := 2 * (idx*(p-1) + r - 1)
				st.tw[o], st.tw[o+1] = real(w), imag(w)
				st.cw[o], st.cw[o+1] = real(w), imag(cmplx.Conj(w))
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
//
//foam:coldpath
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
// The butterfly arithmetic mirrors the complex reference operation for
// operation — each product's real and imaginary parts are two rounded
// multiplies combined by one rounded add/sub, accumulated r-ascending from
// +0 (gc lowers complex128 multiply to exactly these ops; the float64
// conversions pin the product rounding against fused multiply-add
// contraction) — minus the operations that cannot change a bit:
//
//   - the r = 0 twiddle of every stage is exactly (1, ±0), so its term is
//     t - (±0·t') = t or a zero, and the accumulator takes 0 + t;
//   - a term whose input is a structural zero (fftRole.live) is ±0: an
//     accumulator that starts at +0 never becomes -0 under round-to-nearest,
//     so adding ±0 never changes it.
//
// With live = n (ForwardSplitInto, InverseSplitInto) the sweep is therefore
// bit-identical to the complex reference. All of it assumes finite inputs.
//
//foam:hotpath
func (f *FFT) iterSplit(xRe, xIm, yRe, yIm, srcRe, srcIm []float64, role fftRole) {
	last := len(f.stages) - 1
	if last%2 == 1 {
		xRe, xIm, yRe, yIm = yRe, yIm, xRe, xIm
	}
	for d := last; d >= 0; d-- {
		st := &f.stages[d]
		tw := st.tw
		if role.inverse {
			tw = st.cw
		}
		if d == last {
			lo, hi := role.live, f.n-role.live
			switch st.p {
			case 2:
				fftLeaf2(xRe, xIm, srcRe, srcIm, tw, f.leafPos, lo, hi)
			case 3:
				fftLeaf3(xRe, xIm, srcRe, srcIm, tw, f.leafPos, lo, hi)
			case 4:
				fftLeaf4(xRe, xIm, srcRe, srcIm, tw, f.leafPos, lo, hi)
			case 5:
				fftLeaf5(xRe, xIm, srcRe, srcIm, tw, f.leafPos, lo, hi)
			}
			continue
		}
		switch st.p {
		case 2:
			fftStage2(yRe, yIm, xRe, xIm, tw, st.m, st.size)
		case 3:
			fftStage3(yRe, yIm, xRe, xIm, tw, st.m, st.size)
		case 4:
			fftStage4(yRe, yIm, xRe, xIm, tw, st.m, st.size)
		case 5:
			fftStage5(yRe, yIm, xRe, xIm, tw, st.m, st.size)
		}
		xRe, xIm, yRe, yIm = yRe, yIm, xRe, xIm
	}
}

// The fftLeafP kernels are the first stage: m = 1, so the block at output
// offset pos[j0] combines src[j0+r*S], S = n/p, under the p×p twiddle
// matrix, r unrolled and ascending, the r = 0 term a plain add. A term whose
// source index lies strictly between lo and hi is a structural zero and is
// skipped, never read.

//foam:hotpath
func fftLeaf2(dRe, dIm, sRe, sIm, tw []float64, pos []int, lo, hi int) {
	S := len(pos)
	for j0, o := range pos {
		var t0r, t0i, t1r, t1i float64
		if j0 <= lo || j0 >= hi {
			t0r, t0i = sRe[j0], sIm[j0]
		}
		j1 := j0 + S
		l1 := j1 <= lo || j1 >= hi
		if l1 {
			t1r, t1i = sRe[j1], sIm[j1]
		}
		for q := 0; q < 2; q++ {
			w := (*[2]float64)(tw[2*q:])
			sr, si := 0+t0r, 0+t0i
			if l1 {
				sr += float64(w[0]*t1r) - float64(w[1]*t1i)
				si += float64(w[0]*t1i) + float64(w[1]*t1r)
			}
			dRe[o+q], dIm[o+q] = sr, si
		}
	}
}

//foam:hotpath
func fftLeaf3(dRe, dIm, sRe, sIm, tw []float64, pos []int, lo, hi int) {
	S := len(pos)
	for j0, o := range pos {
		var t0r, t0i, t1r, t1i, t2r, t2i float64
		if j0 <= lo || j0 >= hi {
			t0r, t0i = sRe[j0], sIm[j0]
		}
		j1 := j0 + S
		l1 := j1 <= lo || j1 >= hi
		if l1 {
			t1r, t1i = sRe[j1], sIm[j1]
		}
		j2 := j0 + 2*S
		l2 := j2 <= lo || j2 >= hi
		if l2 {
			t2r, t2i = sRe[j2], sIm[j2]
		}
		for q := 0; q < 3; q++ {
			w := (*[4]float64)(tw[4*q:])
			sr, si := 0+t0r, 0+t0i
			if l1 {
				sr += float64(w[0]*t1r) - float64(w[1]*t1i)
				si += float64(w[0]*t1i) + float64(w[1]*t1r)
			}
			if l2 {
				sr += float64(w[2]*t2r) - float64(w[3]*t2i)
				si += float64(w[2]*t2i) + float64(w[3]*t2r)
			}
			dRe[o+q], dIm[o+q] = sr, si
		}
	}
}

//foam:hotpath
func fftLeaf4(dRe, dIm, sRe, sIm, tw []float64, pos []int, lo, hi int) {
	S := len(pos)
	for j0, o := range pos {
		var t0r, t0i, t1r, t1i, t2r, t2i, t3r, t3i float64
		if j0 <= lo || j0 >= hi {
			t0r, t0i = sRe[j0], sIm[j0]
		}
		j1 := j0 + S
		l1 := j1 <= lo || j1 >= hi
		if l1 {
			t1r, t1i = sRe[j1], sIm[j1]
		}
		j2 := j0 + 2*S
		l2 := j2 <= lo || j2 >= hi
		if l2 {
			t2r, t2i = sRe[j2], sIm[j2]
		}
		j3 := j0 + 3*S
		l3 := j3 <= lo || j3 >= hi
		if l3 {
			t3r, t3i = sRe[j3], sIm[j3]
		}
		for q := 0; q < 4; q++ {
			w := (*[6]float64)(tw[6*q:])
			sr, si := 0+t0r, 0+t0i
			if l1 {
				sr += float64(w[0]*t1r) - float64(w[1]*t1i)
				si += float64(w[0]*t1i) + float64(w[1]*t1r)
			}
			if l2 {
				sr += float64(w[2]*t2r) - float64(w[3]*t2i)
				si += float64(w[2]*t2i) + float64(w[3]*t2r)
			}
			if l3 {
				sr += float64(w[4]*t3r) - float64(w[5]*t3i)
				si += float64(w[4]*t3i) + float64(w[5]*t3r)
			}
			dRe[o+q], dIm[o+q] = sr, si
		}
	}
}

//foam:hotpath
func fftLeaf5(dRe, dIm, sRe, sIm, tw []float64, pos []int, lo, hi int) {
	S := len(pos)
	for j0, o := range pos {
		var t0r, t0i, t1r, t1i, t2r, t2i, t3r, t3i, t4r, t4i float64
		if j0 <= lo || j0 >= hi {
			t0r, t0i = sRe[j0], sIm[j0]
		}
		j1 := j0 + S
		l1 := j1 <= lo || j1 >= hi
		if l1 {
			t1r, t1i = sRe[j1], sIm[j1]
		}
		j2 := j0 + 2*S
		l2 := j2 <= lo || j2 >= hi
		if l2 {
			t2r, t2i = sRe[j2], sIm[j2]
		}
		j3 := j0 + 3*S
		l3 := j3 <= lo || j3 >= hi
		if l3 {
			t3r, t3i = sRe[j3], sIm[j3]
		}
		j4 := j0 + 4*S
		l4 := j4 <= lo || j4 >= hi
		if l4 {
			t4r, t4i = sRe[j4], sIm[j4]
		}
		for q := 0; q < 5; q++ {
			w := (*[8]float64)(tw[8*q:])
			sr, si := 0+t0r, 0+t0i
			if l1 {
				sr += float64(w[0]*t1r) - float64(w[1]*t1i)
				si += float64(w[0]*t1i) + float64(w[1]*t1r)
			}
			if l2 {
				sr += float64(w[2]*t2r) - float64(w[3]*t2i)
				si += float64(w[2]*t2i) + float64(w[3]*t2r)
			}
			if l3 {
				sr += float64(w[4]*t3r) - float64(w[5]*t3i)
				si += float64(w[4]*t3i) + float64(w[5]*t3r)
			}
			if l4 {
				sr += float64(w[6]*t4r) - float64(w[7]*t4i)
				si += float64(w[6]*t4i) + float64(w[7]*t4r)
			}
			dRe[o+q], dIm[o+q] = sr, si
		}
	}
}

// The fftStageP kernels combine one later stage in gather form: output idx
// = q*m+k of each size-long block is the r-ascending sum over the block's p
// subsequences at k, r unrolled, the r = 0 term a plain add; its twiddles
// are the record tw[2(p-1)*idx:].

//foam:hotpath
func fftStage2(dRe, dIm, sRe, sIm, tw []float64, m, size int) {
	for b := 0; b < len(sRe); b += size {
		xr, xi := sRe[b:b+size], sIm[b:b+size]
		yr, yi := dRe[b:b+size], dIm[b:b+size]
		k := 0
		for idx := range yr {
			w := (*[2]float64)(tw[2*idx:])
			t1r, t1i := xr[k+m], xi[k+m]
			sr := 0 + xr[k]
			sr += float64(w[0]*t1r) - float64(w[1]*t1i)
			yr[idx] = sr
			si := 0 + xi[k]
			si += float64(w[0]*t1i) + float64(w[1]*t1r)
			yi[idx] = si
			if k++; k == m {
				k = 0
			}
		}
	}
}

//foam:hotpath
func fftStage3(dRe, dIm, sRe, sIm, tw []float64, m, size int) {
	for b := 0; b < len(sRe); b += size {
		xr, xi := sRe[b:b+size], sIm[b:b+size]
		yr, yi := dRe[b:b+size], dIm[b:b+size]
		k := 0
		for idx := range yr {
			w := (*[4]float64)(tw[4*idx:])
			t1r, t1i := xr[k+m], xi[k+m]
			t2r, t2i := xr[k+2*m], xi[k+2*m]
			sr := 0 + xr[k]
			sr += float64(w[0]*t1r) - float64(w[1]*t1i)
			sr += float64(w[2]*t2r) - float64(w[3]*t2i)
			yr[idx] = sr
			si := 0 + xi[k]
			si += float64(w[0]*t1i) + float64(w[1]*t1r)
			si += float64(w[2]*t2i) + float64(w[3]*t2r)
			yi[idx] = si
			if k++; k == m {
				k = 0
			}
		}
	}
}

//foam:hotpath
func fftStage4(dRe, dIm, sRe, sIm, tw []float64, m, size int) {
	for b := 0; b < len(sRe); b += size {
		xr, xi := sRe[b:b+size], sIm[b:b+size]
		yr, yi := dRe[b:b+size], dIm[b:b+size]
		k := 0
		for idx := range yr {
			w := (*[6]float64)(tw[6*idx:])
			t1r, t1i := xr[k+m], xi[k+m]
			t2r, t2i := xr[k+2*m], xi[k+2*m]
			t3r, t3i := xr[k+3*m], xi[k+3*m]
			sr := 0 + xr[k]
			sr += float64(w[0]*t1r) - float64(w[1]*t1i)
			sr += float64(w[2]*t2r) - float64(w[3]*t2i)
			sr += float64(w[4]*t3r) - float64(w[5]*t3i)
			yr[idx] = sr
			si := 0 + xi[k]
			si += float64(w[0]*t1i) + float64(w[1]*t1r)
			si += float64(w[2]*t2i) + float64(w[3]*t2r)
			si += float64(w[4]*t3i) + float64(w[5]*t3r)
			yi[idx] = si
			if k++; k == m {
				k = 0
			}
		}
	}
}

//foam:hotpath
func fftStage5(dRe, dIm, sRe, sIm, tw []float64, m, size int) {
	for b := 0; b < len(sRe); b += size {
		xr, xi := sRe[b:b+size], sIm[b:b+size]
		yr, yi := dRe[b:b+size], dIm[b:b+size]
		k := 0
		for idx := range yr {
			w := (*[8]float64)(tw[8*idx:])
			t1r, t1i := xr[k+m], xi[k+m]
			t2r, t2i := xr[k+2*m], xi[k+2*m]
			t3r, t3i := xr[k+3*m], xi[k+3*m]
			t4r, t4i := xr[k+4*m], xi[k+4*m]
			sr := 0 + xr[k]
			sr += float64(w[0]*t1r) - float64(w[1]*t1i)
			sr += float64(w[2]*t2r) - float64(w[3]*t2i)
			sr += float64(w[4]*t3r) - float64(w[5]*t3i)
			sr += float64(w[6]*t4r) - float64(w[7]*t4i)
			yr[idx] = sr
			si := 0 + xi[k]
			si += float64(w[0]*t1i) + float64(w[1]*t1r)
			si += float64(w[2]*t2i) + float64(w[3]*t2r)
			si += float64(w[4]*t3i) + float64(w[5]*t3r)
			si += float64(w[6]*t4i) + float64(w[7]*t4r)
			yi[idx] = si
			if k++; k == m {
				k = 0
			}
		}
	}
}

// directSplit is the non-smooth-length fallback on the split layout: the
// plain O(n^2) sum. Structural zeros (role.live) are not read.
//
//foam:hotpath
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
//
//foam:hotpath
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
//
//foam:hotpath
func (f *FFT) ForwardSplitInto(dstRe, dstIm, srcRe, srcIm []float64, s *FFTScratch) {
	f.checkSplitPlanes(dstRe, dstIm, srcRe, srcIm)
	f.transformSplit(dstRe, dstIm, srcRe, srcIm, s, fftRole{live: f.n})
}

// InverseSplitInto computes dst[j] = (1/n) * sum_k src[k] * e^{+2*pi*i*j*k/n}
// on split re/im planes. The 1/n normalization reconstructs the complex
// product so each plane rounds exactly as dst[i] *= complex(1/n, 0).
//
//foam:hotpath
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
//
//foam:hotpath
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
//
//foam:hotpath
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
