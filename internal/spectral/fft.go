// Package spectral implements the spectral-transform machinery of the FOAM
// atmosphere: a mixed-radix FFT, associated Legendre functions, and
// spherical-harmonic analysis/synthesis under rhomboidal (or triangular)
// truncation, together with the derivative operators the dynamical core
// needs. A transpose-based distributed transform mirrors the parallel
// spectral transform algorithms of Foster and Worley cited by the paper.
//
//foam:deterministic
package spectral

import (
	"fmt"
	"math"
	"math/cmplx"
)

// FFT computes forward and inverse discrete Fourier transforms of a fixed
// length n. Lengths whose prime factors are 2, 3, or 5 use an O(n log n)
// mixed-radix Cooley-Tukey algorithm; other lengths fall back to a direct
// O(n^2) transform (correct, just slower — the model grids are all
// 2/3/5-smooth).
// An FFT is safe for concurrent use: all fields are read-only after NewFFT
// and working storage is allocated per call.
type FFT struct {
	n       int
	factors []int
	twiddle []complex128 // e^{-2*pi*i*k/n} for k in [0,n)
	stages  []fftStage   // per-depth split twiddle tables (split path)
	perm    []int        // mixed-radix digit reversal: leaf i reads input perm[i]
}

// fftStage holds the precomputed butterfly twiddles for one recursion depth
// of the mixed-radix transform in split re/im layout. At depth d the
// combine step of a size-long block multiplies subsequence r's entry idx by
// twiddle[(r*idx*twStep) % n]; the table flattens that lookup to
// tw{Re,Im}[r*size+idx], removing the modulo and the conjugation branch
// from the innermost loop (cwIm is the pre-negated imaginary part the
// inverse transform uses, exactly cmplx.Conj of the forward twiddle).
type fftStage struct {
	p, m, size       int
	twRe, twIm, cwIm []float64 // length p*size each, indexed r*size+idx
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
			twRe: make([]float64, p*size),
			twIm: make([]float64, p*size),
			cwIm: make([]float64, p*size),
		}
		twStep := n / size
		for r := 0; r < p; r++ {
			for idx := 0; idx < size; idx++ {
				w := f.twiddle[(r*idx*twStep)%n]
				st.twRe[r*size+idx] = real(w)
				st.twIm[r*size+idx] = imag(w)
				st.cwIm[r*size+idx] = imag(cmplx.Conj(w))
			}
		}
		f.stages = append(f.stages, st)
		size = st.m
	}
	if f.factors != nil {
		// Digit-reversal permutation: where recurse's decimation-in-time
		// leaves would read their input. perm[dst] = src so the iterative
		// split transform starts from the same leaf ordering.
		f.perm = make([]int, n)
		var build func(dstOff, srcOff, stride, depth, size int)
		build = func(dstOff, srcOff, stride, depth, size int) {
			if size == 1 {
				f.perm[dstOff] = srcOff
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

// Forward computes dst[k] = sum_j src[j] * e^{-2*pi*i*j*k/n}. dst and src
// must both have length n and may alias.
func (f *FFT) Forward(dst, src []complex128) {
	f.transform(dst, src, false)
}

// Inverse computes dst[j] = (1/n) * sum_k src[k] * e^{+2*pi*i*j*k/n}.
func (f *FFT) Inverse(dst, src []complex128) {
	f.transform(dst, src, true)
	inv := complex(1/float64(f.n), 0)
	for i := range dst {
		dst[i] *= inv
	}
}

func (f *FFT) transform(dst, src []complex128, inverse bool) {
	if len(dst) != f.n || len(src) != f.n {
		panic("spectral: FFT buffer length mismatch")
	}
	if f.factors == nil {
		f.direct(dst, src, inverse)
		return
	}
	work := make([]complex128, f.n)
	copy(work, src)
	f.recurse(dst, work, f.n, 1, 0, inverse)
}

// transformNoAlias is transform for callers that guarantee dst and src do
// not overlap: recurse only reads src, so the defensive copy (and the
// direct path's tmp buffer) can be skipped. The arithmetic is identical to
// transform, so results are bit-identical.
func (f *FFT) transformNoAlias(dst, src []complex128, inverse bool) {
	if len(dst) != f.n || len(src) != f.n {
		panic("spectral: FFT buffer length mismatch")
	}
	if f.factors == nil {
		for k := 0; k < f.n; k++ {
			sum := complex(0, 0)
			for j := 0; j < f.n; j++ {
				t := (j * k) % f.n
				w := f.twiddle[t]
				if inverse {
					w = cmplx.Conj(w)
				}
				sum += w * src[j]
			}
			dst[k] = sum
		}
		return
	}
	f.recurse(dst, src, f.n, 1, 0, inverse)
}

// FFTScratch holds the working storage of the allocation-free *Into FFT
// entry points. One scratch serves one concurrent caller; per-worker use
// requires one scratch per worker (see Workspace).
type FFTScratch struct {
	a, b []complex128 // length n each; never aliased with caller buffers

	// Split-complex working storage for the *SplitInto entry points:
	// staging (buf), output (out), combine scratch (cp), and a
	// permanently-zero imaginary plane real-input analysis reads.
	bufRe, bufIm []float64
	outRe, outIm []float64
	cpRe, cpIm   []float64
	zeroIm       []float64 // all +0; never written after NewScratch
}

// NewScratch allocates scratch sized for this transform length.
//
//foam:coldpath
func (f *FFT) NewScratch() *FFTScratch {
	return &FFTScratch{
		a: make([]complex128, f.n), b: make([]complex128, f.n),
		bufRe: make([]float64, f.n), bufIm: make([]float64, f.n),
		outRe: make([]float64, f.n), outIm: make([]float64, f.n),
		cpRe: make([]float64, f.n), cpIm: make([]float64, f.n),
		zeroIm: make([]float64, f.n),
	}
}

// ForwardInto is Forward without per-call allocation. dst and src must not
// alias each other or the scratch buffers.
//
//foam:hotpath
func (f *FFT) ForwardInto(dst, src []complex128, s *FFTScratch) {
	checkNoAliasC(dst, src, "ForwardInto dst/src")
	f.transformNoAlias(dst, src, false)
}

// InverseInto is Inverse without per-call allocation. dst and src must not
// alias each other or the scratch buffers.
//
//foam:hotpath
func (f *FFT) InverseInto(dst, src []complex128, s *FFTScratch) {
	checkNoAliasC(dst, src, "InverseInto dst/src")
	f.transformNoAlias(dst, src, true)
	inv := complex(1/float64(f.n), 0)
	for i := range dst {
		dst[i] *= inv
	}
}

// checkNoAliasC panics when two complex slices share their first element —
// the aliasing the no-copy paths cannot tolerate.
func checkNoAliasC(a, b []complex128, what string) {
	if len(a) > 0 && len(b) > 0 && &a[0] == &b[0] {
		panic("spectral: " + what + " must not alias")
	}
}

// recurse performs a decimation-in-time mixed-radix FFT of length size over
// work[off], work[off+stride], ... writing the result contiguously into
// dst[0:size] of the caller's region. depth indexes into f.factors.
func (f *FFT) recurse(dst, work []complex128, size, stride, depth int, inverse bool) {
	if size == 1 {
		dst[0] = work[0]
		return
	}
	p := f.factors[depth]
	m := size / p
	// Transform the p interleaved subsequences.
	for r := 0; r < p; r++ {
		f.recurse(dst[r*m:(r+1)*m], work[r*stride:], m, stride*p, depth+1, inverse)
	}
	// Combine: X[k + q*m] = sum_r W^{r(k+qm)} * Sub_r[k].
	var tmp [5]complex128 // radices are at most 5
	twStep := f.n / size
	for k := 0; k < m; k++ {
		for r := 0; r < p; r++ {
			tmp[r] = dst[r*m+k]
		}
		for q := 0; q < p; q++ {
			idx := k + q*m
			sum := complex(0, 0)
			for r := 0; r < p; r++ {
				t := (r * idx * twStep) % f.n
				w := f.twiddle[t]
				if inverse {
					w = cmplx.Conj(w)
				}
				sum += w * tmp[r]
			}
			dst[idx] = sum
		}
	}
}

// fftStripMin is the subsequence length above which a combine stage
// switches from the gather/scatter butterfly (tmp registers per output
// group) to streaming strip accumulation through scratch. Small stages —
// every stage of the model's 48- and 64-point transforms — stay on the
// register path, which has no copies and no per-strip slicing.
const fftStripMin = 16

// iterSplit is the mixed-radix transform on the split re/im layout,
// iterative where recurse is recursive: the digit-reversal permutation
// plays the leaves, then the stages combine bottom-up over the same
// contiguous blocks the recursion would produce. The butterfly arithmetic
// mirrors the complex path operation for operation — product real/imag
// parts are each two rounded multiplies combined by one rounded add/sub,
// then accumulated in the same r-ascending order — so results are
// bit-identical on gc (which lowers complex128 multiply to exactly these
// ops; the float64 conversions pin the product rounding against fused
// multiply-add contraction). The per-butterfly modulo and conjugation
// branch of the complex path are gone: stage tables hold the twiddles in
// traversal order, pre-conjugated for the inverse.
//
//foam:hotpath
func (f *FFT) iterSplit(dstRe, dstIm, srcRe, srcIm []float64, s *FFTScratch, inverse bool) {
	n := f.n
	for i, pi := range f.perm {
		dstRe[i] = srcRe[pi]
		dstIm[i] = srcIm[pi]
	}
	var tRe, tIm [5]float64 // radices are at most 5
	for d := len(f.stages) - 1; d >= 0; d-- {
		st := &f.stages[d]
		p, m, size := st.p, st.m, st.size
		twR := st.twRe
		twI := st.twIm
		if inverse {
			twI = st.cwIm
		}
		if m < fftStripMin {
			// Register path: each output group's p inputs are gathered
			// into registers, the p outputs accumulate r-ascending (as
			// recurse's local sum does) and store back in place. The
			// radix-specialized kernels below unroll both butterfly loops.
			switch p {
			case 4:
				fftButterfly4(dstRe[:n], dstIm[:n], twR, twI, m, size)
			case 3:
				fftButterfly3(dstRe[:n], dstIm[:n], twR, twI, m, size)
			case 2:
				fftButterfly2(dstRe[:n], dstIm[:n], twR, twI, m, size)
			case 5:
				fftButterfly5(dstRe[:n], dstIm[:n], twR, twI, m, size)
			default:
				for b := 0; b < n; b += size {
					for k := 0; k < m; k++ {
						for r := 0; r < p; r++ {
							tRe[r] = dstRe[b+r*m+k]
							tIm[r] = dstIm[b+r*m+k]
						}
						for q := 0; q < p; q++ {
							idx := k + q*m
							var sr, si float64
							for r := 0; r < p; r++ {
								wr, wi := twR[r*size+idx], twI[r*size+idx]
								sr += float64(wr*tRe[r]) - float64(wi*tIm[r])
								si += float64(wr*tIm[r]) + float64(wi*tRe[r])
							}
							dstRe[b+idx] = sr
							dstIm[b+idx] = si
						}
					}
				}
			}
			continue
		}
		// Strip path: move the stage input to scratch, zero the outputs,
		// and accumulate r-ascending over contiguous m-long strips.
		scrRe, scrIm := s.cpRe[:n], s.cpIm[:n]
		copy(scrRe, dstRe[:n])
		copy(scrIm, dstIm[:n])
		for i := 0; i < n; i++ {
			dstRe[i] = 0
			dstIm[i] = 0
		}
		for b := 0; b < n; b += size {
			for r := 0; r < p; r++ {
				subR := scrRe[b+r*m : b+r*m+m]
				subI := scrIm[b+r*m : b+r*m+m]
				for q := 0; q < p; q++ {
					off := r*size + q*m
					wR := twR[off : off+m]
					wI := twI[off : off+m]
					dR := dstRe[b+q*m : b+q*m+m]
					dI := dstIm[b+q*m : b+q*m+m]
					for k := 0; k < m; k++ {
						wr, wi := wR[k], wI[k]
						tre, tim := subR[k], subI[k]
						dR[k] += float64(wr*tre) - float64(wi*tim)
						dI[k] += float64(wr*tim) + float64(wi*tre)
					}
				}
			}
		}
	}
}

// The fftButterflyP kernels below are radix-specialized forms of the
// register path's group loop: both the input (r) and output (q) loops
// are fully unrolled, with the per-output sums still starting at zero
// and adding terms r-ascending so the arithmetic is bit-identical to
// the generic loop. Twiddle tables are sliced per r so each k-step
// reads contiguous lanes.

//foam:hotpath
func fftButterfly2(dRe, dIm, twR, twI []float64, m, size int) {
	w0r, w0i := twR[0:size], twI[0:size]
	w1r, w1i := twR[size:2*size], twI[size:2*size]
	for b := 0; b < len(dRe); b += size {
		a0r, a0i := dRe[b:b+m], dIm[b:b+m]
		a1r, a1i := dRe[b+m:b+2*m], dIm[b+m:b+2*m]
		for k := 0; k < m; k++ {
			t0r, t0i := a0r[k], a0i[k]
			t1r, t1i := a1r[k], a1i[k]
			i1 := m + k
			var s0r, s0i, s1r, s1i float64
			s0r += float64(w0r[k]*t0r) - float64(w0i[k]*t0i)
			s0i += float64(w0r[k]*t0i) + float64(w0i[k]*t0r)
			s0r += float64(w1r[k]*t1r) - float64(w1i[k]*t1i)
			s0i += float64(w1r[k]*t1i) + float64(w1i[k]*t1r)
			s1r += float64(w0r[i1]*t0r) - float64(w0i[i1]*t0i)
			s1i += float64(w0r[i1]*t0i) + float64(w0i[i1]*t0r)
			s1r += float64(w1r[i1]*t1r) - float64(w1i[i1]*t1i)
			s1i += float64(w1r[i1]*t1i) + float64(w1i[i1]*t1r)
			a0r[k], a0i[k] = s0r, s0i
			a1r[k], a1i[k] = s1r, s1i
		}
	}
}

//foam:hotpath
func fftButterfly3(dRe, dIm, twR, twI []float64, m, size int) {
	w0r, w0i := twR[0:size], twI[0:size]
	w1r, w1i := twR[size:2*size], twI[size:2*size]
	w2r, w2i := twR[2*size:3*size], twI[2*size:3*size]
	for b := 0; b < len(dRe); b += size {
		a0r, a0i := dRe[b:b+m], dIm[b:b+m]
		a1r, a1i := dRe[b+m:b+2*m], dIm[b+m:b+2*m]
		a2r, a2i := dRe[b+2*m:b+3*m], dIm[b+2*m:b+3*m]
		for k := 0; k < m; k++ {
			t0r, t0i := a0r[k], a0i[k]
			t1r, t1i := a1r[k], a1i[k]
			t2r, t2i := a2r[k], a2i[k]
			i1 := m + k
			i2 := 2*m + k
			var s0r, s0i, s1r, s1i, s2r, s2i float64
			s0r += float64(w0r[k]*t0r) - float64(w0i[k]*t0i)
			s0i += float64(w0r[k]*t0i) + float64(w0i[k]*t0r)
			s0r += float64(w1r[k]*t1r) - float64(w1i[k]*t1i)
			s0i += float64(w1r[k]*t1i) + float64(w1i[k]*t1r)
			s0r += float64(w2r[k]*t2r) - float64(w2i[k]*t2i)
			s0i += float64(w2r[k]*t2i) + float64(w2i[k]*t2r)
			s1r += float64(w0r[i1]*t0r) - float64(w0i[i1]*t0i)
			s1i += float64(w0r[i1]*t0i) + float64(w0i[i1]*t0r)
			s1r += float64(w1r[i1]*t1r) - float64(w1i[i1]*t1i)
			s1i += float64(w1r[i1]*t1i) + float64(w1i[i1]*t1r)
			s1r += float64(w2r[i1]*t2r) - float64(w2i[i1]*t2i)
			s1i += float64(w2r[i1]*t2i) + float64(w2i[i1]*t2r)
			s2r += float64(w0r[i2]*t0r) - float64(w0i[i2]*t0i)
			s2i += float64(w0r[i2]*t0i) + float64(w0i[i2]*t0r)
			s2r += float64(w1r[i2]*t1r) - float64(w1i[i2]*t1i)
			s2i += float64(w1r[i2]*t1i) + float64(w1i[i2]*t1r)
			s2r += float64(w2r[i2]*t2r) - float64(w2i[i2]*t2i)
			s2i += float64(w2r[i2]*t2i) + float64(w2i[i2]*t2r)
			a0r[k], a0i[k] = s0r, s0i
			a1r[k], a1i[k] = s1r, s1i
			a2r[k], a2i[k] = s2r, s2i
		}
	}
}

//foam:hotpath
func fftButterfly4(dRe, dIm, twR, twI []float64, m, size int) {
	w0r, w0i := twR[0:size], twI[0:size]
	w1r, w1i := twR[size:2*size], twI[size:2*size]
	w2r, w2i := twR[2*size:3*size], twI[2*size:3*size]
	w3r, w3i := twR[3*size:4*size], twI[3*size:4*size]
	for b := 0; b < len(dRe); b += size {
		a0r, a0i := dRe[b:b+m], dIm[b:b+m]
		a1r, a1i := dRe[b+m:b+2*m], dIm[b+m:b+2*m]
		a2r, a2i := dRe[b+2*m:b+3*m], dIm[b+2*m:b+3*m]
		a3r, a3i := dRe[b+3*m:b+4*m], dIm[b+3*m:b+4*m]
		for k := 0; k < m; k++ {
			t0r, t0i := a0r[k], a0i[k]
			t1r, t1i := a1r[k], a1i[k]
			t2r, t2i := a2r[k], a2i[k]
			t3r, t3i := a3r[k], a3i[k]
			i1 := m + k
			i2 := 2*m + k
			i3 := 3*m + k
			var s0r, s0i, s1r, s1i, s2r, s2i, s3r, s3i float64
			s0r += float64(w0r[k]*t0r) - float64(w0i[k]*t0i)
			s0i += float64(w0r[k]*t0i) + float64(w0i[k]*t0r)
			s0r += float64(w1r[k]*t1r) - float64(w1i[k]*t1i)
			s0i += float64(w1r[k]*t1i) + float64(w1i[k]*t1r)
			s0r += float64(w2r[k]*t2r) - float64(w2i[k]*t2i)
			s0i += float64(w2r[k]*t2i) + float64(w2i[k]*t2r)
			s0r += float64(w3r[k]*t3r) - float64(w3i[k]*t3i)
			s0i += float64(w3r[k]*t3i) + float64(w3i[k]*t3r)
			s1r += float64(w0r[i1]*t0r) - float64(w0i[i1]*t0i)
			s1i += float64(w0r[i1]*t0i) + float64(w0i[i1]*t0r)
			s1r += float64(w1r[i1]*t1r) - float64(w1i[i1]*t1i)
			s1i += float64(w1r[i1]*t1i) + float64(w1i[i1]*t1r)
			s1r += float64(w2r[i1]*t2r) - float64(w2i[i1]*t2i)
			s1i += float64(w2r[i1]*t2i) + float64(w2i[i1]*t2r)
			s1r += float64(w3r[i1]*t3r) - float64(w3i[i1]*t3i)
			s1i += float64(w3r[i1]*t3i) + float64(w3i[i1]*t3r)
			s2r += float64(w0r[i2]*t0r) - float64(w0i[i2]*t0i)
			s2i += float64(w0r[i2]*t0i) + float64(w0i[i2]*t0r)
			s2r += float64(w1r[i2]*t1r) - float64(w1i[i2]*t1i)
			s2i += float64(w1r[i2]*t1i) + float64(w1i[i2]*t1r)
			s2r += float64(w2r[i2]*t2r) - float64(w2i[i2]*t2i)
			s2i += float64(w2r[i2]*t2i) + float64(w2i[i2]*t2r)
			s2r += float64(w3r[i2]*t3r) - float64(w3i[i2]*t3i)
			s2i += float64(w3r[i2]*t3i) + float64(w3i[i2]*t3r)
			s3r += float64(w0r[i3]*t0r) - float64(w0i[i3]*t0i)
			s3i += float64(w0r[i3]*t0i) + float64(w0i[i3]*t0r)
			s3r += float64(w1r[i3]*t1r) - float64(w1i[i3]*t1i)
			s3i += float64(w1r[i3]*t1i) + float64(w1i[i3]*t1r)
			s3r += float64(w2r[i3]*t2r) - float64(w2i[i3]*t2i)
			s3i += float64(w2r[i3]*t2i) + float64(w2i[i3]*t2r)
			s3r += float64(w3r[i3]*t3r) - float64(w3i[i3]*t3i)
			s3i += float64(w3r[i3]*t3i) + float64(w3i[i3]*t3r)
			a0r[k], a0i[k] = s0r, s0i
			a1r[k], a1i[k] = s1r, s1i
			a2r[k], a2i[k] = s2r, s2i
			a3r[k], a3i[k] = s3r, s3i
		}
	}
}

//foam:hotpath
func fftButterfly5(dRe, dIm, twR, twI []float64, m, size int) {
	w0r, w0i := twR[0:size], twI[0:size]
	w1r, w1i := twR[size:2*size], twI[size:2*size]
	w2r, w2i := twR[2*size:3*size], twI[2*size:3*size]
	w3r, w3i := twR[3*size:4*size], twI[3*size:4*size]
	w4r, w4i := twR[4*size:5*size], twI[4*size:5*size]
	for b := 0; b < len(dRe); b += size {
		a0r, a0i := dRe[b:b+m], dIm[b:b+m]
		a1r, a1i := dRe[b+m:b+2*m], dIm[b+m:b+2*m]
		a2r, a2i := dRe[b+2*m:b+3*m], dIm[b+2*m:b+3*m]
		a3r, a3i := dRe[b+3*m:b+4*m], dIm[b+3*m:b+4*m]
		a4r, a4i := dRe[b+4*m:b+5*m], dIm[b+4*m:b+5*m]
		for k := 0; k < m; k++ {
			t0r, t0i := a0r[k], a0i[k]
			t1r, t1i := a1r[k], a1i[k]
			t2r, t2i := a2r[k], a2i[k]
			t3r, t3i := a3r[k], a3i[k]
			t4r, t4i := a4r[k], a4i[k]
			i1 := m + k
			i2 := 2*m + k
			i3 := 3*m + k
			i4 := 4*m + k
			var s0r, s0i, s1r, s1i, s2r, s2i, s3r, s3i, s4r, s4i float64
			s0r += float64(w0r[k]*t0r) - float64(w0i[k]*t0i)
			s0i += float64(w0r[k]*t0i) + float64(w0i[k]*t0r)
			s0r += float64(w1r[k]*t1r) - float64(w1i[k]*t1i)
			s0i += float64(w1r[k]*t1i) + float64(w1i[k]*t1r)
			s0r += float64(w2r[k]*t2r) - float64(w2i[k]*t2i)
			s0i += float64(w2r[k]*t2i) + float64(w2i[k]*t2r)
			s0r += float64(w3r[k]*t3r) - float64(w3i[k]*t3i)
			s0i += float64(w3r[k]*t3i) + float64(w3i[k]*t3r)
			s0r += float64(w4r[k]*t4r) - float64(w4i[k]*t4i)
			s0i += float64(w4r[k]*t4i) + float64(w4i[k]*t4r)
			s1r += float64(w0r[i1]*t0r) - float64(w0i[i1]*t0i)
			s1i += float64(w0r[i1]*t0i) + float64(w0i[i1]*t0r)
			s1r += float64(w1r[i1]*t1r) - float64(w1i[i1]*t1i)
			s1i += float64(w1r[i1]*t1i) + float64(w1i[i1]*t1r)
			s1r += float64(w2r[i1]*t2r) - float64(w2i[i1]*t2i)
			s1i += float64(w2r[i1]*t2i) + float64(w2i[i1]*t2r)
			s1r += float64(w3r[i1]*t3r) - float64(w3i[i1]*t3i)
			s1i += float64(w3r[i1]*t3i) + float64(w3i[i1]*t3r)
			s1r += float64(w4r[i1]*t4r) - float64(w4i[i1]*t4i)
			s1i += float64(w4r[i1]*t4i) + float64(w4i[i1]*t4r)
			s2r += float64(w0r[i2]*t0r) - float64(w0i[i2]*t0i)
			s2i += float64(w0r[i2]*t0i) + float64(w0i[i2]*t0r)
			s2r += float64(w1r[i2]*t1r) - float64(w1i[i2]*t1i)
			s2i += float64(w1r[i2]*t1i) + float64(w1i[i2]*t1r)
			s2r += float64(w2r[i2]*t2r) - float64(w2i[i2]*t2i)
			s2i += float64(w2r[i2]*t2i) + float64(w2i[i2]*t2r)
			s2r += float64(w3r[i2]*t3r) - float64(w3i[i2]*t3i)
			s2i += float64(w3r[i2]*t3i) + float64(w3i[i2]*t3r)
			s2r += float64(w4r[i2]*t4r) - float64(w4i[i2]*t4i)
			s2i += float64(w4r[i2]*t4i) + float64(w4i[i2]*t4r)
			s3r += float64(w0r[i3]*t0r) - float64(w0i[i3]*t0i)
			s3i += float64(w0r[i3]*t0i) + float64(w0i[i3]*t0r)
			s3r += float64(w1r[i3]*t1r) - float64(w1i[i3]*t1i)
			s3i += float64(w1r[i3]*t1i) + float64(w1i[i3]*t1r)
			s3r += float64(w2r[i3]*t2r) - float64(w2i[i3]*t2i)
			s3i += float64(w2r[i3]*t2i) + float64(w2i[i3]*t2r)
			s3r += float64(w3r[i3]*t3r) - float64(w3i[i3]*t3i)
			s3i += float64(w3r[i3]*t3i) + float64(w3i[i3]*t3r)
			s3r += float64(w4r[i3]*t4r) - float64(w4i[i3]*t4i)
			s3i += float64(w4r[i3]*t4i) + float64(w4i[i3]*t4r)
			s4r += float64(w0r[i4]*t0r) - float64(w0i[i4]*t0i)
			s4i += float64(w0r[i4]*t0i) + float64(w0i[i4]*t0r)
			s4r += float64(w1r[i4]*t1r) - float64(w1i[i4]*t1i)
			s4i += float64(w1r[i4]*t1i) + float64(w1i[i4]*t1r)
			s4r += float64(w2r[i4]*t2r) - float64(w2i[i4]*t2i)
			s4i += float64(w2r[i4]*t2i) + float64(w2i[i4]*t2r)
			s4r += float64(w3r[i4]*t3r) - float64(w3i[i4]*t3i)
			s4i += float64(w3r[i4]*t3i) + float64(w3i[i4]*t3r)
			s4r += float64(w4r[i4]*t4r) - float64(w4i[i4]*t4i)
			s4i += float64(w4r[i4]*t4i) + float64(w4i[i4]*t4r)
			a0r[k], a0i[k] = s0r, s0i
			a1r[k], a1i[k] = s1r, s1i
			a2r[k], a2i[k] = s2r, s2i
			a3r[k], a3i[k] = s3r, s3i
			a4r[k], a4i[k] = s4r, s4i
		}
	}
}

// directSplit is the non-smooth-length fallback on the split layout,
// mirroring transformNoAlias's direct loop operation for operation.
//
//foam:hotpath
func (f *FFT) directSplit(dstRe, dstIm, srcRe, srcIm []float64, inverse bool) {
	for k := 0; k < f.n; k++ {
		var sumRe, sumIm float64
		for j := 0; j < f.n; j++ {
			t := (j * k) % f.n
			w := f.twiddle[t]
			if inverse {
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

// transformSplitNoAlias runs the unnormalized transform on split planes.
// dst, src, and scratch must be pairwise non-overlapping; src is read-only.
//
//foam:hotpath
func (f *FFT) transformSplitNoAlias(dstRe, dstIm, srcRe, srcIm []float64, s *FFTScratch, inverse bool) {
	if f.factors == nil {
		f.directSplit(dstRe, dstIm, srcRe, srcIm, inverse)
		return
	}
	f.iterSplit(dstRe, dstIm, srcRe, srcIm, s, inverse)
}

// ForwardSplitInto is ForwardInto on split re/im planes: dst = DFT(src),
// unnormalized, through the iterative split butterflies — bit-identical to
// the complex path plane for plane. All four planes have length n; dst,
// src and the scratch must not overlap, and src is only read.
//
//foam:hotpath
func (f *FFT) ForwardSplitInto(dstRe, dstIm, srcRe, srcIm []float64, s *FFTScratch) {
	f.checkSplitPlanes(dstRe, dstIm, srcRe, srcIm)
	f.transformSplitNoAlias(dstRe, dstIm, srcRe, srcIm, s, false)
}

// InverseSplitInto is InverseInto on split re/im planes, including the 1/n
// normalization, which reconstructs the complex product so each plane
// rounds exactly as InverseInto's dst[i] *= complex(1/n, 0).
//
//foam:hotpath
func (f *FFT) InverseSplitInto(dstRe, dstIm, srcRe, srcIm []float64, s *FFTScratch) {
	f.checkSplitPlanes(dstRe, dstIm, srcRe, srcIm)
	f.transformSplitNoAlias(dstRe, dstIm, srcRe, srcIm, s, true)
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

func (f *FFT) direct(dst, src []complex128, inverse bool) {
	tmp := make([]complex128, f.n)
	for k := 0; k < f.n; k++ {
		sum := complex(0, 0)
		for j := 0; j < f.n; j++ {
			t := (j * k) % f.n
			w := f.twiddle[t]
			if inverse {
				w = cmplx.Conj(w)
			}
			sum += w * src[j]
		}
		tmp[k] = sum
	}
	copy(dst, tmp)
}

// AnalyzeReal computes the first mmax+1 complex Fourier coefficients of a
// real periodic sequence: F_m = (1/n) * sum_j x_j e^{-i m lambda_j} with
// lambda_j = 2*pi*j/n. Negative-m coefficients are the conjugates and are
// not stored. dst must have length mmax+1; mmax must be < n/2 so the
// coefficients are unaliased.
func (f *FFT) AnalyzeReal(dst []complex128, x []float64, mmax int) {
	if len(x) != f.n {
		panic("spectral: AnalyzeReal input length mismatch")
	}
	if mmax >= (f.n+1)/2 {
		panic(fmt.Sprintf("spectral: mmax %d too large for n=%d", mmax, f.n))
	}
	buf := make([]complex128, f.n)
	for i, v := range x {
		buf[i] = complex(v, 0)
	}
	out := make([]complex128, f.n)
	f.Forward(out, buf)
	scale := complex(1/float64(f.n), 0)
	for m := 0; m <= mmax; m++ {
		dst[m] = out[m] * scale
	}
}

// SynthesizeReal reconstructs a real sequence from its non-negative
// Fourier coefficients: x_j = Re(F_0) + 2*sum_{m=1..mmax} Re(F_m e^{i m lambda_j}).
func (f *FFT) SynthesizeReal(dst []float64, coefs []complex128) {
	if len(dst) != f.n {
		panic("spectral: SynthesizeReal output length mismatch")
	}
	mmax := len(coefs) - 1
	buf := make([]complex128, f.n)
	buf[0] = complex(real(coefs[0]), 0)
	for m := 1; m <= mmax; m++ {
		buf[m] = coefs[m]
		buf[f.n-m] = cmplx.Conj(coefs[m])
	}
	out := make([]complex128, f.n)
	f.Inverse(out, buf)
	// Inverse applies 1/n; synthesis needs the plain sum, so undo it.
	for j := 0; j < f.n; j++ {
		dst[j] = real(out[j]) * float64(f.n)
	}
}

// AnalyzeRealInto is AnalyzeReal without per-call allocation: the complex
// staging and output buffers come from s. Bit-identical to AnalyzeReal.
//
//foam:hotpath
func (f *FFT) AnalyzeRealInto(dst []complex128, x []float64, mmax int, s *FFTScratch) {
	if len(x) != f.n {
		panic("spectral: AnalyzeReal input length mismatch")
	}
	if mmax >= (f.n+1)/2 {
		panic(fmt.Sprintf("spectral: mmax %d too large for n=%d", mmax, f.n))
	}
	buf, out := s.a, s.b
	for i, v := range x {
		buf[i] = complex(v, 0)
	}
	f.transformNoAlias(out, buf, false)
	scale := complex(1/float64(f.n), 0)
	for m := 0; m <= mmax; m++ {
		dst[m] = out[m] * scale
	}
}

// SynthesizeRealInto is SynthesizeReal without per-call allocation.
// Bit-identical to SynthesizeReal: the inverse transform's 1/n scaling and
// the *n undo are applied in the same order.
//
//foam:hotpath
func (f *FFT) SynthesizeRealInto(dst []float64, coefs []complex128, s *FFTScratch) {
	if len(dst) != f.n {
		panic("spectral: SynthesizeReal output length mismatch")
	}
	mmax := len(coefs) - 1
	if mmax >= (f.n+1)/2 {
		panic(fmt.Sprintf("spectral: SynthesizeReal coefs length %d too large for n=%d", len(coefs), f.n))
	}
	buf, out := s.a, s.b
	buf[0] = complex(real(coefs[0]), 0)
	for m := 1; m <= mmax; m++ {
		buf[m] = coefs[m]
		buf[f.n-m] = cmplx.Conj(coefs[m])
	}
	for i := mmax + 1; i < f.n-mmax; i++ {
		buf[i] = 0
	}
	f.transformNoAlias(out, buf, true)
	inv := complex(1/float64(f.n), 0)
	n := float64(f.n)
	for j := 0; j < f.n; j++ {
		dst[j] = real(out[j]*inv) * n
	}
}

// AnalyzeRealSplitInto is AnalyzeRealInto writing the coefficient row into
// split re/im planes. Bit-identical: the transform mirrors the complex
// butterflies (see recurseSplit), the input's zero imaginary plane is the
// scratch's permanently-zero buffer (so real staging is one copy, not a
// complex widening pass), and the output scaling reconstructs the complex
// value so the boundary multiply rounds exactly as the complex path.
//
//foam:hotpath
func (f *FFT) AnalyzeRealSplitInto(dstRe, dstIm []float64, x []float64, mmax int, s *FFTScratch) {
	if len(x) != f.n {
		panic("spectral: AnalyzeReal input length mismatch")
	}
	if mmax >= (f.n+1)/2 {
		panic(fmt.Sprintf("spectral: mmax %d too large for n=%d", mmax, f.n))
	}
	f.transformSplitNoAlias(s.outRe, s.outIm, x, s.zeroIm, s, false)
	scale := complex(1/float64(f.n), 0)
	for m := 0; m <= mmax; m++ {
		v := complex(s.outRe[m], s.outIm[m]) * scale
		dstRe[m] = real(v)
		dstIm[m] = imag(v)
	}
}

// SynthesizeRealSplitInto is SynthesizeRealInto reading the coefficient row
// from split re/im planes. Bit-identical to the complex path: conjugate
// mirroring negates the imaginary plane exactly as cmplx.Conj, and the
// final 1/n · n de-scaling reconstructs the complex product so it rounds
// identically.
//
//foam:hotpath
func (f *FFT) SynthesizeRealSplitInto(dst []float64, cRe, cIm []float64, s *FFTScratch) {
	if len(dst) != f.n {
		panic("spectral: SynthesizeReal output length mismatch")
	}
	mmax := len(cRe) - 1
	if mmax >= (f.n+1)/2 {
		panic(fmt.Sprintf("spectral: SynthesizeReal coefs length %d too large for n=%d", len(cRe), f.n))
	}
	bufRe, bufIm := s.bufRe, s.bufIm
	bufRe[0] = cRe[0]
	bufIm[0] = 0
	for m := 1; m <= mmax; m++ {
		bufRe[m] = cRe[m]
		bufIm[m] = cIm[m]
		bufRe[f.n-m] = cRe[m]
		bufIm[f.n-m] = -cIm[m]
	}
	for i := mmax + 1; i < f.n-mmax; i++ {
		bufRe[i] = 0
		bufIm[i] = 0
	}
	f.transformSplitNoAlias(s.outRe, s.outIm, bufRe, bufIm, s, true)
	inv := complex(1/float64(f.n), 0)
	n := float64(f.n)
	for j := 0; j < f.n; j++ {
		dst[j] = real(complex(s.outRe[j], s.outIm[j])*inv) * n
	}
}
