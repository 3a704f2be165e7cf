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
// Every kernel works on hemispheric row pairs (j, nlat-1-j): the two rows
// sit at mirrored nodes ±mu with equal weights, and P̄_n^m(-mu) =
// (-1)^(n-m) P̄_n^m(mu), so one table row per pair serves both and each
// Legendre sum splits into an even-k and an odd-k half (DESIGN.md §21).
//
// All tables are read-only after NewTransform, so one Transform may be used
// from many goroutines. With SetPool, the transform stages themselves run
// on the shared worker pool: synthesis and the Fourier phase of analysis
// parallelize over row pairs (both rows of a pair are written by exactly
// one worker) and the analysis accumulation over zonal wavenumbers (each
// spectral coefficient belongs to exactly one m, so its pair accumulation
// order is the serial one regardless of worker count) — pooled results are
// bit-identical to the serial loops.
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

	// Legendre tables of the nlat/2 southern rows, flattened in the
	// spectral layout: pTab[p*Count() + Index(m, m+k)] = P̄_{m+k}^m(mu[p])
	// and hTab likewise H = (1-mu^2) dP̄/dmu. Row nlat-1-p reads the same
	// entries with the parity sign (-1)^k for P̄ and -(-1)^k for H.
	pTab, hTab []float64

	oneMu2 []float64  // 1 - mu^2 per latitude
	pool   *pool.Pool // nil = serial
}

// NewTransform builds transform tables for a truncation on an
// nlat x nlon Gaussian grid; nlat must be a positive even number.
func NewTransform(t Truncation, nlat, nlon int) *Transform {
	if nlon <= 2*t.M {
		panic(fmt.Sprintf("spectral: nlon %d cannot resolve m up to %d", nlon, t.M))
	}
	if nlat < 2 || nlat%2 != 0 {
		panic(fmt.Sprintf("spectral: nlat %d must be a positive even number", nlat))
	}
	nodes, weights := sphere.GaussLegendre(nlat)
	tr := &Transform{Trunc: t, NLat: nlat, NLon: nlon, mu: nodes, w: weights,
		fft: NewFFT(nlon)}
	cnt, kk := t.Count(), t.K+1
	pl := NewLegendre(t.M, t.NMax()+1)
	hl := NewLegendre(t.M, t.NMax())
	pRow := make([]float64, pl.TableSize())
	hRow := make([]float64, hl.TableSize())
	tr.pTab = make([]float64, nlat/2*cnt)
	tr.hTab = make([]float64, nlat/2*cnt)
	for p := 0; p < nlat/2; p++ {
		pl.Eval(pRow, nodes[p])
		EvalDeriv(hRow, pRow, pl, t.M, t.NMax())
		for m := 0; m <= t.M; m++ {
			o := p*cnt + t.Index(m, m)
			copy(tr.pTab[o:o+kk], pRow[pl.Offset(m):])
			copy(tr.hTab[o:o+kk], hRow[hl.Offset(m):])
		}
	}
	tr.oneMu2 = make([]float64, nlat)
	for j := range tr.oneMu2 {
		tr.oneMu2[j] = 1 - nodes[j]*nodes[j]
	}
	return tr
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
// traversal in the fused accumulation phases: a block of mBlock
// consecutive m strips (each K+1 table values) stays resident in L1 while
// every field of a fused batch sweeps it. The pair reduction order per
// coefficient is untouched by the blocking, so the results are
// bit-identical for every block width.
const mBlock = 8

// Workspace holds every buffer the *Into transform entry points need. The
// hot-path storage is split-complex (structure of arrays): Fourier rows and
// spectral accumulators live in separate re/im float64 planes so the inner
// Legendre loops are pure float64 multiply-adds against the purely real
// tables (DESIGN.md §14). Per-worker coefficient rows and FFT scratch are
// keyed by pool worker id so pooled runs write disjoint storage and stay
// bit-identical to serial.
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

// wsPerWorker holds a worker's split coefficient rows for the two rows of
// a pair: c[2s] the southern and c[2s+1] the northern row of output s, M+1
// each (the derivative synthesis has three outputs, UV two, plain
// synthesis one).
type wsPerWorker struct {
	cRe, cIm [6][]float64
	fft      *FFTScratch
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
		pw := &ws.per[w]
		for i := range pw.cRe {
			pw.cRe[i] = make([]float64, mm)
			pw.cIm[i] = make([]float64, mm)
		}
		pw.fft = tr.fft.NewScratch()
	}
	ws.bindPhases()
	return ws
}

// bindPhases creates the pooled phase closures once. They read their
// arguments from the staged fields, never from captured per-call state.
//
// Every phase walks row pairs p = (j, jn = nlat-1-j). Analysis forms, per
// (pair, m), the sum E = F_j + F_jn and the difference D = F_j - F_jn of the
// two rows' Fourier coefficients: even k = n-m reads E·P̄, odd k reads D·P̄,
// and for H the parities are reversed. Synthesis accumulates the even-k and
// odd-k halves once and gets row j as even + odd, row jn as even - odd
// (odd - even for H terms). The float64 conversions around products pin
// the product rounding against fused multiply-add contraction.
//
//foam:hotphases
func (ws *Workspace) bindPhases() {
	tr := ws.tr
	t := tr.Trunc
	mm := t.M + 1
	kk := t.K + 1
	cnt := t.Count()
	nlat := tr.NLat
	nlon := tr.NLon
	row := func(g []float64, j int) []float64 { return g[j*nlon : (j+1)*nlon] }

	fourier := func(dstRe, dstIm []float64, grids [][]float64, w, lo, hi int) {
		s := ws.per[w].fft
		for p := lo; p < hi; p++ {
			jn := nlat - 1 - p
			for f := 0; f < ws.nf; f++ {
				o, on := (f*nlat+p)*mm, (f*nlat+jn)*mm
				tr.fft.analyzePair(dstRe[o:o+mm], dstIm[o:o+mm], dstRe[on:on+mm], dstIm[on:on+mm],
					row(grids[f], p), row(grids[f], jn), s)
			}
		}
	}
	ws.phFourier = func(w, lo, hi int) { fourier(ws.rowsRe, ws.rowsIm, ws.grids, w, lo, hi) }
	ws.phFourierB = func(w, lo, hi int) { fourier(ws.rowsBRe, ws.rowsBIm, ws.gridsB, w, lo, hi) }

	// Analysis accumulation, parallel over m: each coefficient (m,n) is
	// accumulated by the one worker owning m, in the same ascending-pair
	// order as the serial single-field loop; fields share each table strip.
	ws.phAccum = func(_, m0, m1 int) {
		nf := ws.nf
		i0, i1 := t.Index(m0, m0), t.Index(m1-1, m1-1)+kk
		for f := 0; f < nf; f++ {
			clear(ws.specARe[f*cnt+i0 : f*cnt+i1])
			clear(ws.specAIm[f*cnt+i0 : f*cnt+i1])
		}
		for p := 0; p < nlat/2; p++ {
			wj := tr.w[p]
			pt := tr.pTab[p*cnt : (p+1)*cnt]
			for mb := m0; mb < m1; mb += mBlock {
				me := min(mb+mBlock, m1)
				for f := 0; f < nf; f++ {
					o, on := (f*nlat+p)*mm, (f*nlat+nlat-1-p)*mm
					sr, si := ws.specARe[f*cnt:(f+1)*cnt], ws.specAIm[f*cnt:(f+1)*cnt]
					for m := mb; m < me; m++ {
						xr, xi := ws.rowsRe[o+m], ws.rowsIm[o+m]
						yr, yi := ws.rowsRe[on+m], ws.rowsIm[on+m]
						eRe, eIm := (xr+yr)*wj, (xi+yi)*wj
						dRe, dIm := (xr-yr)*wj, (xi-yi)*wj
						base := t.Index(m, m)
						pk := pt[base : base+kk]
						srk, sik := sr[base:base+kk], si[base:base+kk]
						for k := 0; k < kk; k += 2 {
							srk[k] += float64(eRe * pk[k])
							sik[k] += float64(eIm * pk[k])
						}
						for k := 1; k < kk; k += 2 {
							srk[k] += float64(dRe * pk[k])
							sik[k] += float64(dIm * pk[k])
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
		}
	}

	// Div-form accumulation over the staged row sets with the signs folded
	// into the per-row scalars. In pair mode a second output set with the
	// roles of the row sets swapped accumulates in the same table sweep —
	// one pass over pTab/hTab serves both tendencies of every field. Even
	// k: s += i·sA·E_A·P̄ - sB·D_B·H; odd k: s += i·sA·D_A·P̄ - sB·E_B·H.
	ws.phAccumDiv = func(_, m0, m1 int) {
		nf := ws.nf
		pair := ws.pair
		i0, i1 := t.Index(m0, m0), t.Index(m1-1, m1-1)+kk
		for f := 0; f < nf; f++ {
			clear(ws.specARe[f*cnt+i0 : f*cnt+i1])
			clear(ws.specAIm[f*cnt+i0 : f*cnt+i1])
			if pair {
				clear(ws.specBRe[f*cnt+i0 : f*cnt+i1])
				clear(ws.specBIm[f*cnt+i0 : f*cnt+i1])
			}
		}
		inva := 1 / sphere.Radius
		for p := 0; p < nlat/2; p++ {
			wj := tr.w[p] / tr.oneMu2[p] * inva
			pt := tr.pTab[p*cnt : (p+1)*cnt]
			ht := tr.hTab[p*cnt : (p+1)*cnt]
			for mb := m0; mb < m1; mb += mBlock {
				me := min(mb+mBlock, m1)
				for f := 0; f < nf; f++ {
					o, on := (f*nlat+p)*mm, (f*nlat+nlat-1-p)*mm
					s1r, s1i := ws.specARe[f*cnt:(f+1)*cnt], ws.specAIm[f*cnt:(f+1)*cnt]
					s2r, s2i := ws.specBRe[f*cnt:(f+1)*cnt], ws.specBIm[f*cnt:(f+1)*cnt]
					for m := mb; m < me; m++ {
						// E and D of both row sets at this (pair, m).
						aer, aei := ws.rowsRe[o+m]+ws.rowsRe[on+m], ws.rowsIm[o+m]+ws.rowsIm[on+m]
						adr, adi := ws.rowsRe[o+m]-ws.rowsRe[on+m], ws.rowsIm[o+m]-ws.rowsIm[on+m]
						ber, bei := ws.rowsBRe[o+m]+ws.rowsBRe[on+m], ws.rowsBIm[o+m]+ws.rowsBIm[on+m]
						bdr, bdi := ws.rowsBRe[o+m]-ws.rowsBRe[on+m], ws.rowsBIm[o+m]-ws.rowsBIm[on+m]
						sA := ws.signA * (float64(m) * wj)
						sB := ws.signB * wj
						base := t.Index(m, m)
						pk, hk := pt[base:base+kk], ht[base:base+kk]
						c1 := divCoef{-(aei * sA), aer * sA, bdr * sB, bdi * sB, -(adi * sA), adr * sA, ber * sB, bei * sB}
						if !pair {
							divAccum(s1r[base:base+kk], s1i[base:base+kk], pk, hk, &c1)
							continue
						}
						sA2 := ws.signA2 * (float64(m) * wj)
						sB2 := ws.signB2 * wj
						c2 := divCoef{-(bei * sA2), ber * sA2, adr * sB2, adi * sB2, -(bdi * sA2), bdr * sA2, aer * sB2, aei * sB2}
						divAccum2(s1r[base:base+kk], s1i[base:base+kk], s2r[base:base+kk], s2i[base:base+kk], pk, hk, &c1, &c2)
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

	// Synthesis finishes one field of a pair at a time: its (M+1)-long
	// coefficient rows go straight into the pair FFT. The pair's table row
	// (Count() values of P̄, and of H) stays in L1 across the batch.
	ws.phSynth = func(w, lo, hi int) {
		pw := &ws.per[w]
		for p := lo; p < hi; p++ {
			pt := tr.pTab[p*cnt : (p+1)*cnt]
			for f := 0; f < ws.nf; f++ {
				sr, si := ws.specARe[f*cnt:(f+1)*cnt], ws.specAIm[f*cnt:(f+1)*cnt]
				for m := 0; m <= t.M; m++ {
					base := t.Index(m, m)
					eRe, eIm, oRe, oIm := parityDot(sr[base:base+kk], si[base:base+kk], pt[base:base+kk])
					pw.cRe[0][m], pw.cIm[0][m] = eRe+oRe, eIm+oIm
					pw.cRe[1][m], pw.cIm[1][m] = eRe-oRe, eIm-oIm
				}
				tr.fft.synthesizePair(row(ws.grids[f], p), row(ws.grids[f], nlat-1-p),
					pw.cRe[0], pw.cIm[0], pw.cRe[1], pw.cIm[1], pw.fft)
			}
		}
	}

	ws.phDerivs = func(w, lo, hi int) {
		pw := &ws.per[w]
		sr, si := ws.specARe[:cnt], ws.specAIm[:cnt]
		for p := lo; p < hi; p++ {
			pt := tr.pTab[p*cnt : (p+1)*cnt]
			ht := tr.hTab[p*cnt : (p+1)*cnt]
			for m := 0; m <= t.M; m++ {
				base := t.Index(m, m)
				srk, sik := sr[base:base+kk], si[base:base+kk]
				eRe, eIm, oRe, oIm := parityDot(srk, sik, pt[base:base+kk])
				heRe, heIm, hoRe, hoIm := parityDot(srk, sik, ht[base:base+kk])
				fm := float64(m)
				pw.cRe[0][m], pw.cIm[0][m] = eRe+oRe, eIm+oIm
				pw.cRe[1][m], pw.cIm[1][m] = eRe-oRe, eIm-oIm
				pw.cRe[2][m], pw.cIm[2][m] = -(fm * (eIm + oIm)), fm*(eRe+oRe)
				pw.cRe[3][m], pw.cIm[3][m] = -(fm * (eIm - oIm)), fm*(eRe-oRe)
				pw.cRe[4][m], pw.cIm[4][m] = heRe+hoRe, heIm+hoIm
				pw.cRe[5][m], pw.cIm[5][m] = hoRe-heRe, hoIm-heIm
			}
			jn := nlat - 1 - p
			for s, g := range [3][]float64{ws.f, ws.dfdl, ws.hmu} {
				tr.fft.synthesizePair(row(g, p), row(g, jn), pw.cRe[2*s], pw.cIm[2*s],
					pw.cRe[2*s+1], pw.cIm[2*s+1], pw.fft)
			}
		}
	}

	ws.phUV = func(w, lo, hi int) {
		pw := &ws.per[w]
		inva := 1 / sphere.Radius
		for p := lo; p < hi; p++ {
			pt := tr.pTab[p*cnt : (p+1)*cnt]
			ht := tr.hTab[p*cnt : (p+1)*cnt]
			jn := nlat - 1 - p
			for f := 0; f < ws.nf; f++ {
				psiRe, psiIm := ws.specARe[f*cnt:(f+1)*cnt], ws.specAIm[f*cnt:(f+1)*cnt]
				chiRe, chiIm := ws.specBRe[f*cnt:(f+1)*cnt], ws.specBIm[f*cnt:(f+1)*cnt]
				for m := 0; m <= t.M; m++ {
					base := t.Index(m, m)
					pk, hk := pt[base:base+kk], ht[base:base+kk]
					pr, pi := psiRe[base:base+kk], psiIm[base:base+kk]
					cr, ci := chiRe[base:base+kk], chiIm[base:base+kk]
					// P̄ sums (even/odd halves) of psi and chi, then H sums.
					spER, spEI, spOR, spOI := parityDot(pr, pi, pk)
					scER, scEI, scOR, scOI := parityDot(cr, ci, pk)
					hpER, hpEI, hpOR, hpOI := parityDot(pr, pi, hk)
					hcER, hcEI, hcOR, hcOI := parityDot(cr, ci, hk)
					fm := float64(m)
					// U = (i m chi - H(psi))/a, V = (i m psi + H(chi))/a;
					// south row: P̄ even+odd, H even+odd; north row: P̄
					// even-odd, H odd-even.
					pw.cRe[0][m], pw.cIm[0][m] = (-(fm*(scEI+scOI))-(hpER+hpOR))*inva, (fm*(scER+scOR)-(hpEI+hpOI))*inva
					pw.cRe[1][m], pw.cIm[1][m] = (-(fm*(scEI-scOI))-(hpOR-hpER))*inva, (fm*(scER-scOR)-(hpOI-hpEI))*inva
					pw.cRe[2][m], pw.cIm[2][m] = (-(fm*(spEI+spOI))+(hcER+hcOR))*inva, (fm*(spER+spOR)+(hcEI+hcOI))*inva
					pw.cRe[3][m], pw.cIm[3][m] = (-(fm*(spEI-spOI))+(hcOR-hcER))*inva, (fm*(spER-spOR)+(hcOI-hcEI))*inva
				}
				tr.fft.synthesizePair(row(ws.grids[f], p), row(ws.grids[f], jn),
					pw.cRe[0], pw.cIm[0], pw.cRe[1], pw.cIm[1], pw.fft)
				tr.fft.synthesizePair(row(ws.gridsB[f], p), row(ws.gridsB[f], jn),
					pw.cRe[2], pw.cIm[2], pw.cRe[3], pw.cIm[3], pw.fft)
			}
		}
	}
}

// parityDot returns the even-k and odd-k halves of the dot products of a
// split coefficient strip (re, im) with a table strip tk, accumulated
// k-ascending from +0.
//
//foam:hotpath
func parityDot(re, im, tk []float64) (eRe, eIm, oRe, oIm float64) {
	re, im = re[:len(tk)], im[:len(tk)]
	for k := 0; k < len(tk); k += 2 {
		eRe += float64(re[k] * tk[k])
		eIm += float64(im[k] * tk[k])
	}
	for k := 1; k < len(tk); k += 2 {
		oRe += float64(re[k] * tk[k])
		oIm += float64(im[k] * tk[k])
	}
	return
}

// divCoef holds the eight per-(pair, m) scalars of one div-form output:
// the P̄ and H factors (re, im) of its even-k terms, then of its odd-k ones.
type divCoef [8]float64

// divAccum adds one (pair, m) row of the div-form analysis to the split
// accumulator strip (sr, si): even k takes c[0:2]·P̄ - c[2:4]·H, odd k
// c[4:6]·P̄ - c[6:8]·H.
//
//foam:hotpath
func divAccum(sr, si, pk, hk []float64, c *divCoef) {
	sr, si, hk = sr[:len(pk)], si[:len(pk)], hk[:len(pk)]
	for k := 0; k < len(pk); k += 2 {
		sr[k] += float64(c[0]*pk[k]) - float64(c[2]*hk[k])
		si[k] += float64(c[1]*pk[k]) - float64(c[3]*hk[k])
	}
	for k := 1; k < len(pk); k += 2 {
		sr[k] += float64(c[4]*pk[k]) - float64(c[6]*hk[k])
		si[k] += float64(c[5]*pk[k]) - float64(c[7]*hk[k])
	}
}

// divAccum2 is divAccum for two outputs sharing one read of the table
// strips, in the same per-output order.
//
//foam:hotpath
func divAccum2(s1r, s1i, s2r, s2i, pk, hk []float64, c1, c2 *divCoef) {
	s1r, s1i, s2r, s2i, hk = s1r[:len(pk)], s1i[:len(pk)], s2r[:len(pk)], s2i[:len(pk)], hk[:len(pk)]
	for k := 0; k < len(pk); k += 2 {
		pv, hv := pk[k], hk[k]
		s1r[k] += float64(c1[0]*pv) - float64(c1[2]*hv)
		s1i[k] += float64(c1[1]*pv) - float64(c1[3]*hv)
		s2r[k] += float64(c2[0]*pv) - float64(c2[2]*hv)
		s2i[k] += float64(c2[1]*pv) - float64(c2[3]*hv)
	}
	for k := 1; k < len(pk); k += 2 {
		pv, hv := pk[k], hk[k]
		s1r[k] += float64(c1[4]*pv) - float64(c1[6]*hv)
		s1i[k] += float64(c1[5]*pv) - float64(c1[7]*hv)
		s2r[k] += float64(c2[4]*pv) - float64(c2[6]*hv)
		s2i[k] += float64(c2[5]*pv) - float64(c2[7]*hv)
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
	tr.pool.Run(tr.NLat/2, ws.phFourier)
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
	tr.pool.Run(tr.NLat/2, ws.phSynth)
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
	tr.pool.Run(tr.NLat/2, ws.phDerivs)
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
	tr.pool.Run(tr.NLat/2, ws.phUV)
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
	tr.pool.Run(tr.NLat/2, ws.phFourier)
	tr.pool.Run(tr.NLat/2, ws.phFourierB)
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
