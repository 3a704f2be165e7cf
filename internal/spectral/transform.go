package spectral

import (
	"fmt"
	"math"

	"foam/internal/pool"
	"foam/internal/sphere"
)

// Truncation describes a rhomboidal-family spectral truncation: zonal
// wavenumbers m in [0,M], and for each m total wavenumbers n in [m, m+K].
// K = M gives the classic rhomboidal truncation (R15 has M = K = 15);
// setting K very large relative to M with an additional cap would give a
// triangular truncation, which the model does not need.
type Truncation struct {
	M int // maximum zonal wavenumber
	K int // number of total wavenumbers per m, minus one
}

// R15 is the atmosphere truncation used in the paper: 15th-order rhomboidal.
var R15 = Truncation{M: 15, K: 15}

// Rhomboidal returns the order-m rhomboidal truncation R(m).
func Rhomboidal(m int) Truncation { return Truncation{M: m, K: m} }

// Count returns the number of stored (m,n) coefficients.
func (t Truncation) Count() int { return (t.M + 1) * (t.K + 1) }

// Index returns the coefficient index for (m,n).
func (t Truncation) Index(m, n int) int { return m*(t.K+1) + (n - m) }

// NMax returns the largest total wavenumber in the truncation.
func (t Truncation) NMax() int { return t.M + t.K }

// Contains reports whether (m,n) is inside the truncation.
func (t Truncation) Contains(m, n int) bool {
	return m >= 0 && m <= t.M && n >= m && n <= m+t.K
}

// GridFor returns the standard unaliased transform grid dimensions for the
// truncation, following the CCM conventions: for R15 this yields 48
// longitudes and 40 latitudes.
func (t Truncation) GridFor() (nlat, nlon int) {
	// Quadratic unaliasing for rhomboidal truncation: nlon >= 3M+1 rounded
	// up to a 2/3/5-smooth even number, nlat >= (5M+1)/2 rounded up to an
	// even Gaussian count. R15 yields the paper's 48 x 40 grid.
	nlon = smoothAtLeast(3*t.M + 1)
	nlat = smoothAtLeast((5*t.M + 2) / 2)
	return nlat, nlon
}

// smoothPrimes are the factors a transform grid dimension may contain (the
// FFT's mixed radices).
var smoothPrimes = [...]int{2, 3, 5}

func smoothAtLeast(n int) int {
	for v := n; ; v++ {
		m := v
		for _, p := range smoothPrimes {
			for m%p == 0 {
				m /= p
			}
		}
		if m == 1 && v%2 == 0 {
			return v
		}
	}
}

// Transform performs spherical-harmonic analysis and synthesis between a
// Gaussian grid (nlat x nlon, row-major, south to north) and spectral
// coefficients under a fixed truncation.
//
// All tables are read-only after NewTransform, so one Transform may be used
// from many goroutines. With SetPool, the transform stages themselves run
// on the shared worker pool: synthesis parallelizes over latitude rows
// (each output row is written by exactly one worker) and analysis over
// zonal wavenumbers (each spectral coefficient belongs to exactly one m, so
// its latitude accumulation order is the serial one regardless of worker
// count) — both bit-identical to the serial loops.
//
// The *Into entry points do not allocate: all working storage lives in a
// caller-supplied Workspace. The allocating convenience methods (Analyze,
// Synthesize, ...) wrap them with a throwaway workspace and are meant for
// construction-time and test code, not the per-step hot path.
//
//foam:sharedro
type Transform struct {
	Trunc      Truncation
	NLat, NLon int

	mu, w []float64 // Gaussian nodes (sin lat) and weights
	fft   *FFT
	pl    *Legendre // table layout up to NMax+1
	hl    *Legendre // layout helper for hTab

	// Legendre tables, flattened: row j of pTab is the pl layout evaluated
	// at mu[j], stored at pTab[j*pStride : (j+1)*pStride]; likewise hTab
	// holds H = (1-mu^2) dP̄/dmu rows of hStride values. One contiguous
	// block per table keeps latitude sweeps cache-friendly.
	pTab, hTab       []float64
	pStride, hStride int

	oneMu2 []float64  // 1 - mu^2 per latitude
	pool   *pool.Pool // nil = serial
}

// NewTransform builds transform tables for a truncation on an
// nlat x nlon Gaussian grid.
func NewTransform(t Truncation, nlat, nlon int) *Transform {
	if nlon <= 2*t.M {
		panic(fmt.Sprintf("spectral: nlon %d cannot resolve m up to %d", nlon, t.M))
	}
	nodes, weights := sphere.GaussLegendre(nlat)
	tr := &Transform{Trunc: t, NLat: nlat, NLon: nlon, mu: nodes, w: weights,
		fft: NewFFT(nlon)}
	tr.pl = NewLegendre(t.M, t.NMax()+1)
	tr.hl = NewLegendre(t.M, t.NMax())
	tr.pStride = tr.pl.TableSize()
	tr.hStride = tr.hl.TableSize()
	tr.pTab = make([]float64, nlat*tr.pStride)
	tr.hTab = make([]float64, nlat*tr.hStride)
	tr.oneMu2 = make([]float64, nlat)
	for j := 0; j < nlat; j++ {
		tr.pl.Eval(tr.pTab[j*tr.pStride:(j+1)*tr.pStride], nodes[j])
		EvalDeriv(tr.hTab[j*tr.hStride:(j+1)*tr.hStride], tr.pRow(j), tr.pl, t.M, t.NMax())
		tr.oneMu2[j] = 1 - nodes[j]*nodes[j]
	}
	return tr
}

// pRow and hRow return latitude j's slice of the flattened Legendre tables.
func (tr *Transform) pRow(j int) []float64 {
	return tr.pTab[j*tr.pStride : (j+1)*tr.pStride]
}
func (tr *Transform) hRow(j int) []float64 {
	return tr.hTab[j*tr.hStride : (j+1)*tr.hStride]
}

// Share returns a new Transform backed by the receiver's tables — the
// Gaussian nodes and weights, the FFT plan, and the flattened Legendre
// tables, all of which are read-only after NewTransform. Only the pool
// binding is per-instance, so each sharer may SetPool independently (an
// ensemble of models can hold hundreds of members over one table set, with
// per-member memory reduced to prognostic state). The shared copy starts
// serial; Workspaces belong to the copy that created them.
func (tr *Transform) Share() *Transform {
	cp := *tr
	cp.pool = nil
	return &cp
}

// SetPool attaches a pool to execute the transform stages on. A nil
// pool restores serial execution. Workspaces created before SetPool are
// sized for the old worker count and must be rebuilt.
func (tr *Transform) SetPool(p *pool.Pool) {
	//foam:allow sharedro pool is the documented per-instance mutable binding; sharers each own their copy's pool
	tr.pool = p
}

// Mu returns sin(latitude) for row j; Weight the Gaussian weight.
func (tr *Transform) Mu(j int) float64     { return tr.mu[j] }
func (tr *Transform) Weight(j int) float64 { return tr.w[j] }

// mBlock is the cache-blocking width of the (m, k) Legendre-table
// traversal in the fused accumulation and synthesis phases: a block of
// mBlock consecutive m strips (each K+1 table values) is at most ~2 KB and
// stays resident in L1 while every field of a fused batch sweeps it. The
// j reduction order per coefficient is untouched by the blocking, so the
// results are bit-identical for every block width.
const mBlock = 8

// Workspace holds every buffer the *Into transform entry points need. The
// hot-path storage is split-complex (structure of arrays): Fourier rows and
// spectral accumulators live in separate re/im float64 planes so the inner
// Legendre loops are pure float64 multiply-adds against the purely real
// tables — bit-identical to the complex128 path, which multiplies the same
// reals and carries a dead zero lane (see DESIGN.md §14). Per-worker
// coefficient rows and FFT scratch are keyed by pool worker id so pooled
// runs write disjoint storage and stay bit-identical to serial.
//
// Arenas are sized for maxFields fused fields (NewWorkspaceMany); the plain
// NewWorkspace sizes them for the single-field entry points.
//
// A Workspace belongs to the Transform that created it and to one caller
// at a time: two goroutines may not share one Workspace, and a caller that
// invokes transforms from *inside* an outer pool.Run must hold one
// Workspace per outer worker (the nested transform runs inline as worker 0,
// so outer workers would otherwise collide on per[0]). See DESIGN.md §9.
type Workspace struct {
	tr        *Transform
	maxFields int

	// Split Fourier-row arenas: field f, latitude j at (f*NLat+j)*(M+1).
	rowsRe, rowsIm   []float64
	rowsBRe, rowsBIm []float64 // second row set (div-form analyses)
	// Split spectral arenas: field f at f*Count(). specA doubles as the
	// analysis accumulator, synthesis input, and streamfunction scratch;
	// specB as the pair-form second output and velocity-potential scratch.
	specARe, specAIm []float64
	specBRe, specBIm []float64
	per              []wsPerWorker

	// Staged arguments for the pooled phases below. The *Into entry point
	// stages its arguments here, runs the phases, then clears the fields;
	// the phase funcs themselves are bound once at NewWorkspace so pooled
	// calls allocate nothing.
	nf             int // staged batch width
	grids, gridsB  [][]float64
	specs, specsB  [][]complex128
	f, dfdl, hmu   []float64
	signA, signB   float64
	signA2, signB2 float64
	pair           bool

	// Persistent one-element batch headers for the single-field wrappers.
	oneG, oneG2 [][]float64
	oneS, oneS2 [][]complex128

	phFourier  func(w, lo, hi int)
	phFourierB func(w, lo, hi int)
	phAccum    func(w, lo, hi int)
	phAccumDiv func(w, lo, hi int)
	phSynth    func(w, lo, hi int)
	phDerivs   func(w, lo, hi int)
	phUV       func(w, lo, hi int)
}

type wsPerWorker struct {
	// Split coefficient rows, maxFields*(M+1) each (three sets: the
	// derivative synthesis needs three rows, UV two, plain synthesis one).
	c1Re, c1Im []float64
	c2Re, c2Im []float64
	c3Re, c3Im []float64
	fft        *FFTScratch
}

// NewWorkspace allocates a workspace sized for this transform, its current
// pool's worker count, and the single-field entry points. Create
// workspaces after SetPool.
//
//foam:coldpath
func (tr *Transform) NewWorkspace() *Workspace {
	return tr.NewWorkspaceMany(1)
}

// NewWorkspaceMany allocates a workspace whose arenas can fuse up to
// maxFields fields per call to the *ManyInto entry points (the single-field
// entry points work with any capacity). Create workspaces after SetPool.
//
//foam:coldpath
func (tr *Transform) NewWorkspaceMany(maxFields int) *Workspace {
	if maxFields < 1 {
		panic(fmt.Sprintf("spectral: NewWorkspaceMany(%d): need at least one field", maxFields))
	}
	t := tr.Trunc
	mm := t.M + 1
	rows := maxFields * tr.NLat * mm
	cnt := maxFields * t.Count()
	ws := &Workspace{
		tr:        tr,
		maxFields: maxFields,
		rowsRe:    make([]float64, rows), rowsIm: make([]float64, rows),
		rowsBRe: make([]float64, rows), rowsBIm: make([]float64, rows),
		specARe: make([]float64, cnt), specAIm: make([]float64, cnt),
		specBRe: make([]float64, cnt), specBIm: make([]float64, cnt),
		per:  make([]wsPerWorker, tr.pool.Workers()),
		oneG: make([][]float64, 1), oneG2: make([][]float64, 1),
		oneS: make([][]complex128, 1), oneS2: make([][]complex128, 1),
	}
	for w := range ws.per {
		ws.per[w] = wsPerWorker{
			c1Re: make([]float64, maxFields*mm), c1Im: make([]float64, maxFields*mm),
			c2Re: make([]float64, maxFields*mm), c2Im: make([]float64, maxFields*mm),
			c3Re: make([]float64, maxFields*mm), c3Im: make([]float64, maxFields*mm),
			fft: tr.fft.NewScratch(),
		}
	}
	ws.bindPhases()
	return ws
}

// bindPhases creates the pooled phase closures once. They read their
// arguments from the staged fields, never from captured per-call state.
//
// Bit-identity of the split loops: in the complex path every product has a
// purely real (or purely imaginary) factor, so its dead lane contributes
// only a ±0 term; ±0 terms are absorbed exactly by the accumulators (an
// accumulator that starts at +0 can never become -0 under round-to-nearest)
// and every non-accumulated boundary value is computed by reconstructing
// the complex operand and reusing the original expression. The float64
// conversions around products pin the product rounding against fused
// multiply-add contraction, matching gc's complex lowering.
//
//foam:hotphases
func (ws *Workspace) bindPhases() {
	tr := ws.tr
	t := tr.Trunc
	mm := t.M + 1
	kk := t.K + 1
	cnt := t.Count()
	nlat := tr.NLat

	fourier := func(dstRe, dstIm []float64, grids [][]float64, w, lo, hi int) {
		s := ws.per[w].fft
		for j := lo; j < hi; j++ {
			for f := 0; f < ws.nf; f++ {
				o := (f*nlat + j) * mm
				tr.fft.AnalyzeRealSplitInto(dstRe[o:o+mm], dstIm[o:o+mm],
					grids[f][j*tr.NLon:(j+1)*tr.NLon], t.M, s)
			}
		}
	}
	ws.phFourier = func(w, lo, hi int) { fourier(ws.rowsRe, ws.rowsIm, ws.grids, w, lo, hi) }
	ws.phFourierB = func(w, lo, hi int) { fourier(ws.rowsBRe, ws.rowsBIm, ws.gridsB, w, lo, hi) }

	// Analysis accumulation, parallel over m: each coefficient (m,n) is
	// accumulated by the one worker owning m, in the same ascending-j order
	// as the serial single-field loop; fields share each Legendre strip.
	ws.phAccum = func(_, m0, m1 int) {
		nf := ws.nf
		for f := 0; f < nf; f++ {
			sr, si := ws.specARe[f*cnt:(f+1)*cnt], ws.specAIm[f*cnt:(f+1)*cnt]
			for i := t.Index(m0, m0); i < t.Index(m1-1, m1-1)+kk; i++ {
				sr[i] = 0
				si[i] = 0
			}
		}
		for j := 0; j < nlat; j++ {
			wj := tr.w[j]
			p := tr.pRow(j)
			for mb := m0; mb < m1; mb += mBlock {
				me := mb + mBlock
				if me > m1 {
					me = m1
				}
				for f := 0; f < nf; f++ {
					o := (f*nlat + j) * mm
					rowRe, rowIm := ws.rowsRe[o:o+mm], ws.rowsIm[o:o+mm]
					sr, si := ws.specARe[f*cnt:(f+1)*cnt], ws.specAIm[f*cnt:(f+1)*cnt]
					for m := mb; m < me; m++ {
						fre := rowRe[m] * wj
						fim := rowIm[m] * wj
						off := tr.pl.Offset(m)
						base := t.Index(m, m)
						pk := p[off : off+kk]
						srk, sik := sr[base:base+kk], si[base:base+kk]
						for k := range pk {
							srk[k] += float64(fre * pk[k])
							sik[k] += float64(fim * pk[k])
						}
					}
				}
			}
		}
		for f := 0; f < nf; f++ {
			spec := ws.specs[f]
			sr, si := ws.specARe[f*cnt:(f+1)*cnt], ws.specAIm[f*cnt:(f+1)*cnt]
			for i := t.Index(m0, m0); i < t.Index(m1-1, m1-1)+kk; i++ {
				spec[i] = complex(sr[i], si[i])
			}
		}
	}

	// Div-form accumulation over the staged row sets with the signs folded
	// into the per-row scalars (exact: IEEE negation commutes with every
	// linear operation here bit-for-bit). In pair mode a second output set
	// with the roles of the row sets swapped accumulates in the same table
	// sweep — one pass over pTab/hTab serves both tendencies of every field.
	ws.phAccumDiv = func(_, m0, m1 int) {
		nf := ws.nf
		pair := ws.pair
		i0, i1 := t.Index(m0, m0), t.Index(m1-1, m1-1)+kk
		for f := 0; f < nf; f++ {
			sr, si := ws.specARe[f*cnt:(f+1)*cnt], ws.specAIm[f*cnt:(f+1)*cnt]
			for i := i0; i < i1; i++ {
				sr[i] = 0
				si[i] = 0
			}
			if pair {
				sr2, si2 := ws.specBRe[f*cnt:(f+1)*cnt], ws.specBIm[f*cnt:(f+1)*cnt]
				for i := i0; i < i1; i++ {
					sr2[i] = 0
					si2[i] = 0
				}
			}
		}
		inva := 1 / sphere.Radius
		for j := 0; j < nlat; j++ {
			wj := tr.w[j] / tr.oneMu2[j] * inva
			p := tr.pRow(j)
			h := tr.hRow(j)
			for mb := m0; mb < m1; mb += mBlock {
				me := mb + mBlock
				if me > m1 {
					me = m1
				}
				for f := 0; f < nf; f++ {
					o := (f*nlat + j) * mm
					aRe, aIm := ws.rowsRe[o:o+mm], ws.rowsIm[o:o+mm]
					bRe, bIm := ws.rowsBRe[o:o+mm], ws.rowsBIm[o:o+mm]
					s1r, s1i := ws.specARe[f*cnt:(f+1)*cnt], ws.specAIm[f*cnt:(f+1)*cnt]
					s2r, s2i := ws.specBRe[f*cnt:(f+1)*cnt], ws.specBIm[f*cnt:(f+1)*cnt]
					for m := mb; m < me; m++ {
						sA := ws.signA * (float64(m) * wj)
						sB := ws.signB * wj
						faRe, faIm := -(aIm[m] * sA), aRe[m]*sA
						fbRe, fbIm := bRe[m]*sB, bIm[m]*sB
						offP := tr.pl.Offset(m)
						offH := tr.hl.Offset(m)
						base := t.Index(m, m)
						pk := p[offP : offP+kk]
						hk := h[offH : offH+kk]
						if !pair {
							srk, sik := s1r[base:base+kk], s1i[base:base+kk]
							for k := range pk {
								srk[k] += float64(faRe*pk[k]) - float64(fbRe*hk[k])
								sik[k] += float64(faIm*pk[k]) - float64(fbIm*hk[k])
							}
							continue
						}
						sA2 := ws.signA2 * (float64(m) * wj)
						sB2 := ws.signB2 * wj
						gaRe, gaIm := -(bIm[m] * sA2), bRe[m]*sA2
						gbRe, gbIm := aRe[m]*sB2, aIm[m]*sB2
						s1rk, s1ik := s1r[base:base+kk], s1i[base:base+kk]
						s2rk, s2ik := s2r[base:base+kk], s2i[base:base+kk]
						for k := range pk {
							pv, hv := pk[k], hk[k]
							s1rk[k] += float64(faRe*pv) - float64(fbRe*hv)
							s1ik[k] += float64(faIm*pv) - float64(fbIm*hv)
							s2rk[k] += float64(gaRe*pv) - float64(gbRe*hv)
							s2ik[k] += float64(gaIm*pv) - float64(gbIm*hv)
						}
					}
				}
			}
		}
		for f := 0; f < nf; f++ {
			spec := ws.specs[f]
			sr, si := ws.specARe[f*cnt:(f+1)*cnt], ws.specAIm[f*cnt:(f+1)*cnt]
			for i := i0; i < i1; i++ {
				spec[i] = complex(sr[i], si[i])
			}
			if pair {
				spec2 := ws.specsB[f]
				sr2, si2 := ws.specBRe[f*cnt:(f+1)*cnt], ws.specBIm[f*cnt:(f+1)*cnt]
				for i := i0; i < i1; i++ {
					spec2[i] = complex(sr2[i], si2[i])
				}
			}
		}
	}

	ws.phSynth = func(w, lo, hi int) {
		pw := &ws.per[w]
		nf := ws.nf
		for j := lo; j < hi; j++ {
			p := tr.pRow(j)
			for mb := 0; mb <= t.M; mb += mBlock {
				me := mb + mBlock
				if me > t.M+1 {
					me = t.M + 1
				}
				for f := 0; f < nf; f++ {
					sr, si := ws.specARe[f*cnt:(f+1)*cnt], ws.specAIm[f*cnt:(f+1)*cnt]
					for m := mb; m < me; m++ {
						off := tr.pl.Offset(m)
						base := t.Index(m, m)
						pk := p[off : off+kk]
						srk, sik := sr[base:base+kk], si[base:base+kk]
						var sumRe, sumIm float64
						for k := range pk {
							sumRe += float64(srk[k] * pk[k])
							sumIm += float64(sik[k] * pk[k])
						}
						pw.c1Re[f*mm+m] = sumRe
						pw.c1Im[f*mm+m] = sumIm
					}
				}
			}
			for f := 0; f < nf; f++ {
				tr.fft.SynthesizeRealSplitInto(ws.grids[f][j*tr.NLon:(j+1)*tr.NLon],
					pw.c1Re[f*mm:(f+1)*mm], pw.c1Im[f*mm:(f+1)*mm], pw.fft)
			}
		}
	}

	ws.phDerivs = func(w, lo, hi int) {
		pw := &ws.per[w]
		sr, si := ws.specARe[:cnt], ws.specAIm[:cnt]
		for j := lo; j < hi; j++ {
			p := tr.pRow(j)
			h := tr.hRow(j)
			for m := 0; m <= t.M; m++ {
				offP := tr.pl.Offset(m)
				offH := tr.hl.Offset(m)
				base := t.Index(m, m)
				pk := p[offP : offP+kk]
				hk := h[offH : offH+kk]
				srk, sik := sr[base:base+kk], si[base:base+kk]
				var sfRe, sfIm, shRe, shIm float64
				for k := range pk {
					cr, ci := srk[k], sik[k]
					sfRe += float64(cr * pk[k])
					sfIm += float64(ci * pk[k])
					shRe += float64(cr * hk[k])
					shIm += float64(ci * hk[k])
				}
				cd := complex(0, float64(m)) * complex(sfRe, sfIm)
				pw.c1Re[m], pw.c1Im[m] = sfRe, sfIm
				pw.c2Re[m], pw.c2Im[m] = real(cd), imag(cd)
				pw.c3Re[m], pw.c3Im[m] = shRe, shIm
			}
			tr.fft.SynthesizeRealSplitInto(ws.f[j*tr.NLon:(j+1)*tr.NLon], pw.c1Re[:mm], pw.c1Im[:mm], pw.fft)
			tr.fft.SynthesizeRealSplitInto(ws.dfdl[j*tr.NLon:(j+1)*tr.NLon], pw.c2Re[:mm], pw.c2Im[:mm], pw.fft)
			tr.fft.SynthesizeRealSplitInto(ws.hmu[j*tr.NLon:(j+1)*tr.NLon], pw.c3Re[:mm], pw.c3Im[:mm], pw.fft)
		}
	}

	ws.phUV = func(w, lo, hi int) {
		pw := &ws.per[w]
		nf := ws.nf
		inva := complex(1/sphere.Radius, 0)
		for j := lo; j < hi; j++ {
			p := tr.pRow(j)
			h := tr.hRow(j)
			for mb := 0; mb <= t.M; mb += mBlock {
				me := mb + mBlock
				if me > t.M+1 {
					me = t.M + 1
				}
				for f := 0; f < nf; f++ {
					psiRe, psiIm := ws.specARe[f*cnt:(f+1)*cnt], ws.specAIm[f*cnt:(f+1)*cnt]
					chiRe, chiIm := ws.specBRe[f*cnt:(f+1)*cnt], ws.specBIm[f*cnt:(f+1)*cnt]
					for m := mb; m < me; m++ {
						offP := tr.pl.Offset(m)
						offH := tr.hl.Offset(m)
						base := t.Index(m, m)
						pk := p[offP : offP+kk]
						hk := h[offH : offH+kk]
						var sPsiRe, sPsiIm, sChiRe, sChiIm float64
						var hPsiRe, hPsiIm, hChiRe, hChiIm float64
						for k := range pk {
							pv, hv := pk[k], hk[k]
							pr, pi := psiRe[base+k], psiIm[base+k]
							cr, ci := chiRe[base+k], chiIm[base+k]
							sPsiRe += float64(pr * pv)
							sPsiIm += float64(pi * pv)
							sChiRe += float64(cr * pv)
							sChiIm += float64(ci * pv)
							hPsiRe += float64(pr * hv)
							hPsiIm += float64(pi * hv)
							hChiRe += float64(cr * hv)
							hChiIm += float64(ci * hv)
						}
						im := complex(0, float64(m))
						cu := (im*complex(sChiRe, sChiIm) - complex(hPsiRe, hPsiIm)) * inva
						cv := (im*complex(sPsiRe, sPsiIm) + complex(hChiRe, hChiIm)) * inva
						pw.c1Re[f*mm+m], pw.c1Im[f*mm+m] = real(cu), imag(cu)
						pw.c2Re[f*mm+m], pw.c2Im[f*mm+m] = real(cv), imag(cv)
					}
				}
			}
			for f := 0; f < nf; f++ {
				tr.fft.SynthesizeRealSplitInto(ws.grids[f][j*tr.NLon:(j+1)*tr.NLon],
					pw.c1Re[f*mm:(f+1)*mm], pw.c1Im[f*mm:(f+1)*mm], pw.fft)
				tr.fft.SynthesizeRealSplitInto(ws.gridsB[f][j*tr.NLon:(j+1)*tr.NLon],
					pw.c2Re[f*mm:(f+1)*mm], pw.c2Im[f*mm:(f+1)*mm], pw.fft)
			}
		}
	}
}

// ready validates a workspace (nil allocates a throwaway one — the
// allocating convenience path).
func (tr *Transform) ready(ws *Workspace) *Workspace {
	if ws == nil {
		return tr.NewWorkspace()
	}
	if ws.tr != tr {
		panic("spectral: Workspace used with a Transform other than its creator")
	}
	if nw := tr.pool.Workers(); nw > len(ws.per) {
		panic(fmt.Sprintf("spectral: Workspace sized for %d workers used with a %d-worker pool; rebuild workspaces after SetPool", len(ws.per), nw))
	}
	return ws
}

func (tr *Transform) checkGrid(g []float64, what string) {
	if len(g) != tr.NLat*tr.NLon {
		panic(fmt.Sprintf("spectral: %s grid length %d, want %d", what, len(g), tr.NLat*tr.NLon))
	}
}

func (tr *Transform) checkSpec(s []complex128, what string) {
	if len(s) != tr.Trunc.Count() {
		panic(fmt.Sprintf("spectral: %s spectral length %d, want %d", what, len(s), tr.Trunc.Count()))
	}
}

// checkNoAliasF panics when two float slices share their first element:
// distinct destination buffers are required wherever a phase writes them in
// the same pass.
func checkNoAliasF(a, b []float64, what string) {
	if len(a) > 0 && len(b) > 0 && &a[0] == &b[0] {
		panic("spectral: " + what + " must not alias")
	}
}

// checkNoAliasC is checkNoAliasF for spectral (complex) destinations.
func checkNoAliasC(a, b []complex128, what string) {
	if len(a) > 0 && len(b) > 0 && &a[0] == &b[0] {
		panic("spectral: " + what + " must not alias")
	}
}

// checkBatch validates a fused batch: equal field counts within the
// workspace's arena capacity, every grid and spectral slice full-sized, and
// pairwise-distinct destination slices where dsts is non-nil.
func (tr *Transform) checkBatch(ws *Workspace, ng, ns int, what string) {
	if ng != ns {
		panic(fmt.Sprintf("spectral: %s batch widths differ: %d grids, %d spectral fields", what, ng, ns))
	}
	if ng > ws.maxFields {
		panic(fmt.Sprintf("spectral: %s batch of %d fields exceeds workspace capacity %d; use NewWorkspaceMany", what, ng, ws.maxFields))
	}
}

func checkDistinctF(dsts [][]float64, what string) {
	for i := range dsts {
		for j := 0; j < i; j++ {
			checkNoAliasF(dsts[i], dsts[j], what)
		}
	}
}

func checkDistinctC(dsts [][]complex128, what string) {
	for i := range dsts {
		for j := 0; j < i; j++ {
			checkNoAliasC(dsts[i], dsts[j], what)
		}
	}
}

// analyzeMany runs the fused analysis over staged batches.
func (tr *Transform) analyzeMany(specs [][]complex128, grids [][]float64, ws *Workspace) {
	ws.nf, ws.grids, ws.specs = len(specs), grids, specs
	tr.pool.Run(tr.NLat, ws.phFourier)
	tr.pool.Run(tr.Trunc.M+1, ws.phAccum)
	ws.nf, ws.grids, ws.specs = 0, nil, nil
}

// AnalyzeInto computes spectral coefficients from a grid field without
// allocating: split Fourier rows land in the workspace row arena, then the
// Legendre accumulation fills spec (every coefficient is overwritten).
//
//foam:hotpath
func (tr *Transform) AnalyzeInto(spec []complex128, grid []float64, ws *Workspace) {
	ws = tr.ready(ws)
	tr.checkGrid(grid, "AnalyzeInto")
	tr.checkSpec(spec, "AnalyzeInto")
	ws.oneS[0], ws.oneG[0] = spec, grid
	tr.analyzeMany(ws.oneS, ws.oneG, ws)
	ws.oneS[0], ws.oneG[0] = nil, nil
}

// AnalyzeManyInto is the fused-batch AnalyzeInto: one pass over the
// Legendre tables serves every field of the batch, so the per-field table
// traffic of the atmosphere's per-step analyses is amortized across the
// batch. Each specs[f] receives the analysis of grids[f], bit-identical to
// len(specs) calls of AnalyzeInto. The batch width must not exceed the
// workspace's NewWorkspaceMany capacity; spec destinations must be
// pairwise distinct.
//
//foam:hotpath
func (tr *Transform) AnalyzeManyInto(specs [][]complex128, grids [][]float64, ws *Workspace) {
	ws = tr.ready(ws)
	tr.checkBatch(ws, len(grids), len(specs), "AnalyzeManyInto")
	if len(specs) == 0 {
		return
	}
	for i := range specs {
		tr.checkGrid(grids[i], "AnalyzeManyInto")
		tr.checkSpec(specs[i], "AnalyzeManyInto")
	}
	checkDistinctC(specs, "AnalyzeManyInto spec destinations")
	tr.analyzeMany(specs, grids, ws)
}

// Analyze computes spectral coefficients from a grid field (allocating
// convenience wrapper; not for the hot path).
func (tr *Transform) Analyze(grid []float64) []complex128 {
	spec := make([]complex128, tr.Trunc.Count())
	tr.AnalyzeInto(spec, grid, nil)
	return spec
}

// Synthesize reconstructs a grid field from spectral coefficients
// (allocating convenience wrapper).
func (tr *Transform) Synthesize(spec []complex128) []float64 {
	grid := make([]float64, tr.NLat*tr.NLon)
	tr.SynthesizeInto(grid, spec, nil)
	return grid
}

// synthesizeMany de-interleaves the spectral batch into the split arena
// and runs the fused synthesis phase.
func (tr *Transform) synthesizeMany(grids [][]float64, specs [][]complex128, ws *Workspace) {
	cnt := tr.Trunc.Count()
	for f := range specs {
		sr, si := ws.specARe[f*cnt:(f+1)*cnt], ws.specAIm[f*cnt:(f+1)*cnt]
		for i, v := range specs[f] {
			sr[i] = real(v)
			si[i] = imag(v)
		}
	}
	ws.nf, ws.grids = len(grids), grids
	tr.pool.Run(tr.NLat, ws.phSynth)
	ws.nf, ws.grids = 0, nil
}

// SynthesizeInto writes the synthesis into an existing grid buffer. With a
// non-nil workspace the call does not allocate.
//
//foam:hotpath
func (tr *Transform) SynthesizeInto(grid []float64, spec []complex128, ws *Workspace) {
	ws = tr.ready(ws)
	tr.checkGrid(grid, "SynthesizeInto")
	tr.checkSpec(spec, "SynthesizeInto")
	ws.oneG[0], ws.oneS[0] = grid, spec
	tr.synthesizeMany(ws.oneG, ws.oneS, ws)
	ws.oneG[0], ws.oneS[0] = nil, nil
}

// SynthesizeManyInto is the fused-batch SynthesizeInto: every field of the
// batch shares each latitude's Legendre strip, bit-identical to len(grids)
// calls of SynthesizeInto. Grid destinations must be pairwise distinct;
// the batch width must not exceed the workspace's capacity.
//
//foam:hotpath
func (tr *Transform) SynthesizeManyInto(grids [][]float64, specs [][]complex128, ws *Workspace) {
	ws = tr.ready(ws)
	tr.checkBatch(ws, len(grids), len(specs), "SynthesizeManyInto")
	if len(grids) == 0 {
		return
	}
	for i := range grids {
		tr.checkGrid(grids[i], "SynthesizeManyInto")
		tr.checkSpec(specs[i], "SynthesizeManyInto")
	}
	checkDistinctF(grids, "SynthesizeManyInto grid destinations")
	tr.synthesizeMany(grids, specs, ws)
}

// SynthesizeWithDerivsInto is the allocation-free form of
// SynthesizeWithDerivs: f, dfdl and hmu must be distinct grid-sized
// buffers.
//
//foam:hotpath
func (tr *Transform) SynthesizeWithDerivsInto(f, dfdl, hmu []float64, spec []complex128, ws *Workspace) {
	ws = tr.ready(ws)
	tr.checkGrid(f, "SynthesizeWithDerivsInto f")
	tr.checkGrid(dfdl, "SynthesizeWithDerivsInto dfdl")
	tr.checkGrid(hmu, "SynthesizeWithDerivsInto hmu")
	tr.checkSpec(spec, "SynthesizeWithDerivsInto")
	checkNoAliasF(f, dfdl, "SynthesizeWithDerivsInto f/dfdl")
	checkNoAliasF(f, hmu, "SynthesizeWithDerivsInto f/hmu")
	checkNoAliasF(dfdl, hmu, "SynthesizeWithDerivsInto dfdl/hmu")
	cnt := tr.Trunc.Count()
	sr, si := ws.specARe[:cnt], ws.specAIm[:cnt]
	for i, v := range spec {
		sr[i] = real(v)
		si[i] = imag(v)
	}
	ws.f, ws.dfdl, ws.hmu = f, dfdl, hmu
	tr.pool.Run(tr.NLat, ws.phDerivs)
	ws.f, ws.dfdl, ws.hmu = nil, nil, nil
}

// SynthesizeWithDerivs returns the grid field together with its plain
// longitude derivative df/dlambda and the weighted meridional derivative
// (1-mu^2) df/dmu. The advective operator on the sphere is then
//
//	u·grad f = (U*dfdl + V*hmu) / (a*(1-mu^2))
//
// with U = u cos(lat), V = v cos(lat). Allocating convenience wrapper.
func (tr *Transform) SynthesizeWithDerivs(spec []complex128) (f, dfdl, hmu []float64) {
	f = make([]float64, tr.NLat*tr.NLon)
	dfdl = make([]float64, tr.NLat*tr.NLon)
	hmu = make([]float64, tr.NLat*tr.NLon)
	tr.SynthesizeWithDerivsInto(f, dfdl, hmu, spec, nil)
	return f, dfdl, hmu
}

// SynthesizeUVInto computes the grid wind images U = u cos(lat),
// V = v cos(lat) from spectral relative vorticity and divergence via the
// streamfunction / velocity-potential relations
//
//	psi = -a^2 zeta / (n(n+1)),  chi = -a^2 D / (n(n+1))
//	U = (d chi/d lambda - H(psi)) / a,  V = (d psi/d lambda + H(chi)) / a.
//
// U and V must be distinct grid-sized buffers; vort and div are read-only
// and may alias. With a non-nil workspace the call does not allocate.
//
//foam:hotpath
func (tr *Transform) SynthesizeUVInto(U, V []float64, vort, div []complex128, ws *Workspace) {
	ws = tr.ready(ws)
	tr.checkGrid(U, "SynthesizeUVInto U")
	tr.checkGrid(V, "SynthesizeUVInto V")
	tr.checkSpec(vort, "SynthesizeUVInto vort")
	tr.checkSpec(div, "SynthesizeUVInto div")
	checkNoAliasF(U, V, "SynthesizeUVInto U/V")
	ws.oneG[0], ws.oneG2[0] = U, V
	ws.oneS[0], ws.oneS2[0] = vort, div
	tr.synthesizeUVMany(ws.oneG, ws.oneG2, ws.oneS, ws.oneS2, ws)
	ws.oneG[0], ws.oneG2[0] = nil, nil
	ws.oneS[0], ws.oneS2[0] = nil, nil
}

// synthesizeUVMany stages the scaled streamfunction/velocity-potential
// batches into the split arenas and runs the fused UV phase.
func (tr *Transform) synthesizeUVMany(Us, Vs [][]float64, vorts, divs [][]complex128, ws *Workspace) {
	t := tr.Trunc
	cnt := t.Count()
	a2 := sphere.Radius * sphere.Radius
	for f := range vorts {
		vort, div := vorts[f], divs[f]
		psiRe, psiIm := ws.specARe[f*cnt:(f+1)*cnt], ws.specAIm[f*cnt:(f+1)*cnt]
		chiRe, chiIm := ws.specBRe[f*cnt:(f+1)*cnt], ws.specBIm[f*cnt:(f+1)*cnt]
		for m := 0; m <= t.M; m++ {
			for n := m; n <= m+t.K; n++ {
				idx := t.Index(m, n)
				if n == 0 {
					psiRe[idx], psiIm[idx] = 0, 0
					chiRe[idx], chiIm[idx] = 0, 0
					continue
				}
				s := complex(-a2/float64(n*(n+1)), 0)
				pv := s * vort[idx]
				cv := s * div[idx]
				psiRe[idx], psiIm[idx] = real(pv), imag(pv)
				chiRe[idx], chiIm[idx] = real(cv), imag(cv)
			}
		}
	}
	ws.nf, ws.grids, ws.gridsB = len(Us), Us, Vs
	tr.pool.Run(tr.NLat, ws.phUV)
	ws.nf, ws.grids, ws.gridsB = 0, nil, nil
}

// SynthesizeUVManyInto is the fused-batch SynthesizeUVInto: each level's
// wind images Us[f], Vs[f] come from vorts[f], divs[f], bit-identical to
// per-level SynthesizeUVInto calls, with the Legendre strips shared across
// the batch. All grid destinations must be pairwise distinct.
//
//foam:hotpath
func (tr *Transform) SynthesizeUVManyInto(Us, Vs [][]float64, vorts, divs [][]complex128, ws *Workspace) {
	ws = tr.ready(ws)
	tr.checkBatch(ws, len(Us), len(vorts), "SynthesizeUVManyInto")
	if len(Us) != len(Vs) || len(vorts) != len(divs) {
		panic("spectral: SynthesizeUVManyInto batch widths differ")
	}
	if len(Us) == 0 {
		return
	}
	for i := range Us {
		tr.checkGrid(Us[i], "SynthesizeUVManyInto U")
		tr.checkGrid(Vs[i], "SynthesizeUVManyInto V")
		tr.checkSpec(vorts[i], "SynthesizeUVManyInto vort")
		tr.checkSpec(divs[i], "SynthesizeUVManyInto div")
		checkNoAliasF(Us[i], Vs[i], "SynthesizeUVManyInto U/V")
	}
	checkDistinctF(Us, "SynthesizeUVManyInto U destinations")
	checkDistinctF(Vs, "SynthesizeUVManyInto V destinations")
	tr.synthesizeUVMany(Us, Vs, vorts, divs, ws)
}

// SynthesizeUV is the allocating convenience wrapper of SynthesizeUVInto.
func (tr *Transform) SynthesizeUV(vort, div []complex128) (U, V []float64) {
	U = make([]float64, tr.NLat*tr.NLon)
	V = make([]float64, tr.NLat*tr.NLon)
	tr.SynthesizeUVInto(U, V, vort, div, nil)
	return U, V
}

// AnalyzeDivFormInto computes the spectral coefficients of
//
//	(signA/(a(1-mu^2))) dA/dlambda + (signB/a) dB/dmu
//
// from grid fields A and B, using integration by parts for the meridional
// term so no grid derivative of B is required. The sign parameters (each
// ±1) fold the negations the tendency assembly needs into the per-row
// scalars — bit-identical to negating the grids, without touching them.
// A and B are read-only and may alias; spec is zeroed first. With a
// non-nil workspace the call does not allocate.
//
//foam:hotpath
func (tr *Transform) AnalyzeDivFormInto(spec []complex128, A, B []float64, signA, signB float64, ws *Workspace) {
	ws = tr.ready(ws)
	tr.checkGrid(A, "AnalyzeDivFormInto A")
	tr.checkGrid(B, "AnalyzeDivFormInto B")
	tr.checkSpec(spec, "AnalyzeDivFormInto")
	ws.oneS[0], ws.oneG[0], ws.oneG2[0] = spec, A, B
	tr.analyzeDivMany(ws.oneS, nil, ws.oneG, ws.oneG2, signA, signB, 0, 0, false, ws)
	ws.oneS[0], ws.oneG[0], ws.oneG2[0] = nil, nil, nil
}

// analyzeDivMany computes the split Fourier rows of the A and B batches
// once, then runs the div-form accumulation; with pair set, a second
// output set with the row roles swapped (and its own signs) accumulates in
// the same Legendre sweep.
func (tr *Transform) analyzeDivMany(specs, specsB [][]complex128, As, Bs [][]float64, sA, sB, sA2, sB2 float64, pair bool, ws *Workspace) {
	ws.nf, ws.grids, ws.gridsB = len(specs), As, Bs
	tr.pool.Run(tr.NLat, ws.phFourier)
	tr.pool.Run(tr.NLat, ws.phFourierB)
	ws.specs, ws.specsB = specs, specsB
	ws.signA, ws.signB, ws.signA2, ws.signB2, ws.pair = sA, sB, sA2, sB2, pair
	tr.pool.Run(tr.Trunc.M+1, ws.phAccumDiv)
	ws.nf, ws.grids, ws.gridsB = 0, nil, nil
	ws.specs, ws.specsB, ws.pair = nil, nil, false
}

// AnalyzeDivFormManyInto is the fused-batch AnalyzeDivFormInto: specs[f]
// receives the div-form analysis of As[f], Bs[f] under the shared sign
// pair, bit-identical to per-field calls. Spec destinations must be
// pairwise distinct.
//
//foam:hotpath
func (tr *Transform) AnalyzeDivFormManyInto(specs [][]complex128, As, Bs [][]float64, signA, signB float64, ws *Workspace) {
	ws = tr.ready(ws)
	tr.checkBatch(ws, len(As), len(specs), "AnalyzeDivFormManyInto")
	if len(As) != len(Bs) {
		panic("spectral: AnalyzeDivFormManyInto batch widths differ")
	}
	if len(specs) == 0 {
		return
	}
	for i := range specs {
		tr.checkGrid(As[i], "AnalyzeDivFormManyInto A")
		tr.checkGrid(Bs[i], "AnalyzeDivFormManyInto B")
		tr.checkSpec(specs[i], "AnalyzeDivFormManyInto")
	}
	checkDistinctC(specs, "AnalyzeDivFormManyInto spec destinations")
	tr.analyzeDivMany(specs, nil, As, Bs, signA, signB, 0, 0, false, ws)
}

// AnalyzeDivPairManyInto fuses the two div-form analyses the tendency
// assemblies need — specs1[f] = divform(As[f], Bs[f], sA1, sB1) and
// specs2[f] = divform(Bs[f], As[f], sA2, sB2) — into one pass: the Fourier
// rows of each field are computed once and each Legendre strip is read
// once for both outputs of every field. Bit-identical to the composed
// AnalyzeDivFormInto calls. All spec destinations must be pairwise
// distinct.
//
//foam:hotpath
func (tr *Transform) AnalyzeDivPairManyInto(specs1, specs2 [][]complex128, As, Bs [][]float64, sA1, sB1, sA2, sB2 float64, ws *Workspace) {
	ws = tr.ready(ws)
	tr.checkBatch(ws, len(As), len(specs1), "AnalyzeDivPairManyInto")
	if len(As) != len(Bs) || len(specs1) != len(specs2) {
		panic("spectral: AnalyzeDivPairManyInto batch widths differ")
	}
	if len(specs1) == 0 {
		return
	}
	for i := range specs1 {
		tr.checkGrid(As[i], "AnalyzeDivPairManyInto A")
		tr.checkGrid(Bs[i], "AnalyzeDivPairManyInto B")
		tr.checkSpec(specs1[i], "AnalyzeDivPairManyInto")
		tr.checkSpec(specs2[i], "AnalyzeDivPairManyInto")
		checkNoAliasC(specs1[i], specs2[i], "AnalyzeDivPairManyInto spec destinations")
	}
	checkDistinctC(specs1, "AnalyzeDivPairManyInto spec destinations")
	checkDistinctC(specs2, "AnalyzeDivPairManyInto spec destinations")
	tr.analyzeDivMany(specs1, specs2, As, Bs, sA1, sB1, sA2, sB2, true, ws)
}

// AnalyzeDivForm is the allocating convenience wrapper of
// AnalyzeDivFormInto. The vorticity and divergence tendencies are
//
//	vorticity tendency   = AnalyzeDivForm(A, B, -1, -1)
//	divergence tendency  = AnalyzeDivForm(B, A, +1, -1)
func (tr *Transform) AnalyzeDivForm(A, B []float64, signA, signB float64) []complex128 {
	spec := make([]complex128, tr.Trunc.Count())
	tr.AnalyzeDivFormInto(spec, A, B, signA, signB, nil)
	return spec
}

// VortDivTendInto assembles the rotational-form tendencies used by the
// dynamical core: given grid fluxes A = U*X and B = V*X (for vorticity
// advection X = absolute vorticity, etc.) it computes
//
//	vort = -(1/(a(1-mu^2))) dA/dlambda - (1/a) dB/dmu
//	div  = +(1/(a(1-mu^2))) dB/dlambda - (1/a) dA/dmu
//
// vort and div must be distinct; A and B are read-only. The Fourier rows
// of A and B are computed once and shared by both accumulations, halving
// the FFT work of two separate AnalyzeDivForm calls.
//
//foam:hotpath
func (tr *Transform) VortDivTendInto(vort, div []complex128, A, B []float64, ws *Workspace) {
	ws = tr.ready(ws)
	tr.checkGrid(A, "VortDivTendInto A")
	tr.checkGrid(B, "VortDivTendInto B")
	tr.checkSpec(vort, "VortDivTendInto vort")
	tr.checkSpec(div, "VortDivTendInto div")
	if len(vort) > 0 && len(div) > 0 && &vort[0] == &div[0] {
		panic("spectral: VortDivTendInto vort/div must not alias")
	}
	ws.oneS[0], ws.oneS2[0] = vort, div
	ws.oneG[0], ws.oneG2[0] = A, B
	tr.analyzeDivMany(ws.oneS, ws.oneS2, ws.oneG, ws.oneG2, -1, -1, 1, -1, true, ws)
	ws.oneS[0], ws.oneS2[0] = nil, nil
	ws.oneG[0], ws.oneG2[0] = nil, nil
}

// VortDivTend is the allocating convenience wrapper of VortDivTendInto.
func (tr *Transform) VortDivTend(A, B []float64) (vort, div []complex128) {
	vort = make([]complex128, tr.Trunc.Count())
	div = make([]complex128, tr.Trunc.Count())
	tr.VortDivTendInto(vort, div, A, B, nil)
	return vort, div
}

// Laplacian multiplies spectral coefficients by -n(n+1)/a^2 in place and
// returns the slice.
func (tr *Transform) Laplacian(spec []complex128) []complex128 {
	t := tr.Trunc
	a2 := sphere.Radius * sphere.Radius
	for m := 0; m <= t.M; m++ {
		for n := m; n <= m+t.K; n++ {
			spec[t.Index(m, n)] *= complex(-float64(n*(n+1))/a2, 0)
		}
	}
	return spec
}

// InverseLaplacian divides by -n(n+1)/a^2, zeroing the global mean.
func (tr *Transform) InverseLaplacian(spec []complex128) []complex128 {
	t := tr.Trunc
	a2 := sphere.Radius * sphere.Radius
	for m := 0; m <= t.M; m++ {
		for n := m; n <= m+t.K; n++ {
			idx := t.Index(m, n)
			if n == 0 {
				spec[idx] = 0
				continue
			}
			spec[idx] /= complex(-float64(n*(n+1))/a2, 0)
		}
	}
	return spec
}

// MeanOfSpec returns the area mean implied by the spectral field (the
// (0,0) coefficient times P̄_0^0 = 1/sqrt(2)).
func (tr *Transform) MeanOfSpec(spec []complex128) float64 {
	return real(spec[tr.Trunc.Index(0, 0)]) / math.Sqrt2
}
