package spectral

// The recursive complex128 FFT the package shipped before the iterative
// split-plane kernels (fft.go) replaced it on every non-test path. It stays
// here as the oracle: TestFFTSplitPlanesBitIdentical compares the generic
// split transforms against it with ==, and TestFFTPairRowsMatchReference
// and the refKit transforms bound the pair kernels against it, so it must
// not be "optimized".

import (
	"fmt"
	"math/cmplx"
)

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
