// Package atmos implements the FOAM atmosphere: a spectral-transform
// primitive-equation dynamical core in vorticity-divergence form on sigma
// levels (the PCCM2 lineage the paper describes), with semi-implicit
// leapfrog time stepping, horizontal hyperdiffusion, semi-Lagrangian
// moisture transport, and simplified CCM2/CCM3-style column physics.
package atmos

import (
	"fmt"
	"math"
)

// Thermodynamic constants (SI).
const (
	RDry   = 287.04  // gas constant for dry air, J/(kg K)
	Cp     = 1004.64 // specific heat at constant pressure, J/(kg K)
	Kappa  = RDry / Cp
	LVap   = 2.501e6 // latent heat of vaporization, J/kg
	LFus   = 3.336e5 // latent heat of fusion, J/kg
	RVap   = 461.5   // gas constant for water vapor, J/(kg K)
	EpsWV  = RDry / RVap
	P00    = 1.0e5    // reference surface pressure, Pa
	TRef   = 300.0    // semi-implicit reference temperature, K (isothermal)
	StefBo = 5.670e-8 // Stefan-Boltzmann constant, W/(m^2 K^4)
)

// VGrid is the sigma-coordinate vertical grid: nl full levels between nl+1
// half levels, ordered top (k=0) to bottom (k=nl-1). sigma = p/ps.
type VGrid struct {
	NL    int
	Half  []float64   // half-level sigma, len nl+1, Half[0]=sigmaTop, Half[nl]=1
	Full  []float64   // full-level sigma, len nl
	DSig  []float64   // layer thickness Half[k+1]-Half[k]
	hydro [][]float64 // hydrostatic matrix G: Phi_k = Phi_s + sum_l G[k][l]*T_l
	aMat  [][]float64 // thermo coupling A: linear dT/dt = -A . D (per level)
	// Hypsometric log-thickness of each half layer: lnLow[k] from the half
	// level below up to full level k, lnUp[k] from there to the half level
	// above (+Inf is never produced: Half[0] = sigmaTop > 0).
	lnLow, lnUp []float64
	// Full-level Exner factors of sigma, sigK[k] = Full[k]^kappa and
	// sigKInv[k] = Full[k]^-kappa: a column's (p_k/P00)^kappa is
	// sigK[k]*(ps/P00)^kappa.
	sigK, sigKInv []float64
}

// NewVGrid builds an nl-level stretched sigma grid. The smoothstep
// stretching concentrates resolution near both the surface and the model
// top, as climate-model grids do. sigmaTop is the pressure of the model top
// as a fraction of surface pressure (e.g. 0.003 for ~3 hPa).
func NewVGrid(nl int, sigmaTop float64) *VGrid {
	if nl < 2 {
		panic(fmt.Sprintf("atmos: need at least 2 levels, got %d", nl))
	}
	if sigmaTop <= 0 || sigmaTop >= 0.5 {
		panic("atmos: sigmaTop out of range")
	}
	v := &VGrid{NL: nl}
	v.Half = make([]float64, nl+1)
	for k := 0; k <= nl; k++ {
		x := float64(k) / float64(nl)
		s := x * x * (3 - 2*x) // smoothstep in (0,1)
		v.Half[k] = sigmaTop + (1-sigmaTop)*s
	}
	v.Half[0] = sigmaTop
	v.Half[nl] = 1
	v.Full = make([]float64, nl)
	v.DSig = make([]float64, nl)
	v.lnLow = make([]float64, nl)
	v.lnUp = make([]float64, nl)
	v.sigK = make([]float64, nl)
	v.sigKInv = make([]float64, nl)
	for k := 0; k < nl; k++ {
		v.Full[k] = 0.5 * (v.Half[k] + v.Half[k+1])
		v.DSig[k] = v.Half[k+1] - v.Half[k]
		v.lnLow[k] = math.Log(v.Half[k+1] / v.Full[k])
		v.lnUp[k] = math.Log(v.Full[k] / v.Half[k])
		v.sigK[k] = math.Pow(v.Full[k], Kappa)
		v.sigKInv[k] = math.Pow(v.Full[k], -Kappa)
	}
	v.buildHydro()
	v.buildThermo()
	return v
}

// buildHydro constructs G with the downward integration
//
//	Phi_{nl-1} = Phi_s + R T_{nl-1} ln(1/sigma_{nl-1})
//	Phi_k      = Phi_{k+1} + R*(T_k+T_{k+1})/2 * ln(sigma_{k+1}/sigma_k)
func (v *VGrid) buildHydro() {
	nl := v.NL
	g := make([][]float64, nl)
	for k := range g {
		g[k] = make([]float64, nl)
	}
	g[nl-1][nl-1] = RDry * math.Log(1/v.Full[nl-1])
	for k := nl - 2; k >= 0; k-- {
		copy(g[k], g[k+1])
		w := 0.5 * RDry * math.Log(v.Full[k+1]/v.Full[k])
		g[k][k] += w
		g[k][k+1] += w
	}
	v.hydro = g
}

// buildThermo constructs the linear thermodynamic coupling for the
// isothermal reference profile: the reference part of kappa*T*(omega/p) is
//
//	kappa*TRef*(omega/p)_ref = -kappa*TRef * cum_k(D)/sigma_k
//
// so dT_k/dt |_linear = -sum_l A[k][l] D_l with
// A[k][l] = kappa*TRef*w_{kl}/sigma_k, w_{kl} = DSig_l for l<k, DSig_k/2 for
// l=k, 0 otherwise.
func (v *VGrid) buildThermo() {
	nl := v.NL
	a := make([][]float64, nl)
	for k := 0; k < nl; k++ {
		a[k] = make([]float64, nl)
		for l := 0; l < k; l++ {
			a[k][l] = Kappa * TRef * v.DSig[l] / v.Full[k]
		}
		a[k][k] = Kappa * TRef * 0.5 * v.DSig[k] / v.Full[k]
	}
	v.aMat = a
}

// Geopotential fills phi (len nl) with full-level geopotential given the
// temperature profile and surface geopotential.
func (v *VGrid) Geopotential(phi, T []float64, phiS float64) {
	for k := 0; k < v.NL; k++ {
		s := phiS
		for l := 0; l < v.NL; l++ {
			s += v.hydro[k][l] * T[l]
		}
		phi[k] = s
	}
}

// HydroRow returns row k of the hydrostatic matrix G.
func (v *VGrid) HydroRow(k int) []float64 { return v.hydro[k] }

// ThermoRow returns row k of the thermodynamic coupling matrix A.
func (v *VGrid) ThermoRow(k int) []float64 { return v.aMat[k] }

// SemiImplicit holds the per-total-wavenumber LU factors of the
// gravity-wave coupling matrix I + dt^2 c_n (G A + R*TRef*b^T), where
// b_l = DSig_l and c_n = n(n+1)/a^2 (see DESIGN.md section 5).
type SemiImplicit struct {
	v   *VGrid
	dt  float64
	lus []*lu // indexed by n
}

// NewSemiImplicit precomputes factorizations for total wavenumbers up to
// nmax at time step dt (the leapfrog half-interval, i.e. the dt multiplying
// the implicit average).
func NewSemiImplicit(v *VGrid, radius float64, nmax int, dt float64) *SemiImplicit {
	nl := v.NL
	// M = G*A + R*TRef * ones-weighted outer product with b.
	m := make([][]float64, nl)
	for k := 0; k < nl; k++ {
		m[k] = make([]float64, nl)
		for l := 0; l < nl; l++ {
			s := 0.0
			for j := 0; j < nl; j++ {
				s += v.hydro[k][j] * v.aMat[j][l]
			}
			m[k][l] = s + RDry*TRef*v.DSig[l]
		}
	}
	si := &SemiImplicit{v: v, dt: dt, lus: make([]*lu, nmax+1)}
	a2 := radius * radius
	for n := 0; n <= nmax; n++ {
		cn := float64(n*(n+1)) / a2
		mat := make([][]float64, nl)
		for k := 0; k < nl; k++ {
			mat[k] = make([]float64, nl)
			for l := 0; l < nl; l++ {
				mat[k][l] = dt * dt * cn * m[k][l]
			}
			mat[k][k] += 1
		}
		si.lus[n] = newLU(mat)
	}
	return si
}

// Solve solves (I + dt^2 c_n M) x = rhs in place for total wavenumber n and
// returns rhs (now holding x). Real and imaginary parts are solved
// separately by the caller.
func (si *SemiImplicit) Solve(n int, rhs []float64) []float64 {
	si.lus[n].solve(rhs)
	return rhs
}

// SolveInto is Solve with caller-provided scratch (len >= the number of
// levels), for the allocation-free step path. Safe to call concurrently as
// long as each goroutine passes its own scratch.
func (si *SemiImplicit) SolveInto(n int, rhs, scratch []float64) {
	si.lus[n].solveInto(rhs, scratch)
}

// lu is a dense LU factorization with partial pivoting for the small
// nl x nl vertical systems.
type lu struct {
	n    int
	a    [][]float64
	perm []int
}

func newLU(m [][]float64) *lu {
	n := len(m)
	a := make([][]float64, n)
	for i := range a {
		a[i] = append([]float64(nil), m[i]...)
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for col := 0; col < n; col++ {
		// Pivot.
		p := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[p][col]) {
				p = r
			}
		}
		// Only an exactly-zero pivot makes the elimination divide by zero.
		if a[p][col] == 0 {
			panic("atmos: singular semi-implicit matrix")
		}
		a[col], a[p] = a[p], a[col]
		perm[col], perm[p] = perm[p], perm[col]
		inv := 1 / a[col][col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] * inv
			a[r][col] = f
			for c := col + 1; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
		}
	}
	return &lu{n: n, a: a, perm: perm}
}

func (l *lu) solve(b []float64) {
	l.solveInto(b, make([]float64, l.n))
}

// solveInto solves using x (len >= l.n) as permutation scratch.
func (l *lu) solveInto(b, x []float64) {
	n := l.n
	x = x[:n]
	for i := 0; i < n; i++ {
		x[i] = b[l.perm[i]]
	}
	// Forward substitution (unit lower triangular).
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			x[i] -= l.a[i][j] * x[j]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		for j := i + 1; j < n; j++ {
			x[i] -= l.a[i][j] * x[j]
		}
		x[i] /= l.a[i][i]
	}
	copy(b, x)
}

// TriDiag solves a tridiagonal system in place: sub, diag, sup are the
// three diagonals (sub[0] and sup[n-1] unused); rhs is overwritten with the
// solution. sup is clobbered: it holds the forward-sweep coefficients, so
// the solve needs no scratch allocation. Used by the implicit vertical
// diffusion in the physics.
func TriDiag(sub, diag, sup, rhs []float64) {
	n := len(diag)
	sup[0] /= diag[0]
	rhs[0] /= diag[0]
	for i := 1; i < n; i++ {
		m := diag[i] - sub[i]*sup[i-1]
		if i < n-1 {
			sup[i] /= m
		}
		rhs[i] = (rhs[i] - sub[i]*rhs[i-1]) / m
	}
	for i := n - 2; i >= 0; i-- {
		rhs[i] -= sup[i] * rhs[i+1]
	}
}
