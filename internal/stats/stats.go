// Package stats provides the analysis tools of the paper's Section 6:
// area-weighted empirical orthogonal function (EOF) decomposition, VARIMAX
// rotation, the 60-month low-pass filtering used for Figure 4, and the
// field-comparison metrics (bias, RMSE, centered pattern correlation) used
// for Figure 3.
package stats

import (
	"fmt"
	"math"
)

// Anomalies removes the time mean of each column (spatial point) of a
// [time][space] series in place and returns the means.
func Anomalies(series [][]float64) []float64 {
	if len(series) == 0 {
		return nil
	}
	nsp := len(series[0])
	mean := make([]float64, nsp)
	for _, row := range series {
		for c, v := range row {
			mean[c] += v
		}
	}
	for c := range mean {
		mean[c] /= float64(len(series))
	}
	for _, row := range series {
		for c := range row {
			row[c] -= mean[c]
		}
	}
	return mean
}

// RemoveSeasonalCycle subtracts the mean annual cycle (period steps) from a
// [time][space] series in place.
func RemoveSeasonalCycle(series [][]float64, period int) {
	if len(series) == 0 || period <= 1 {
		return
	}
	nsp := len(series[0])
	for ph := 0; ph < period; ph++ {
		mean := make([]float64, nsp)
		cnt := 0
		for t := ph; t < len(series); t += period {
			for c, v := range series[t] {
				mean[c] += v
			}
			cnt++
		}
		if cnt == 0 {
			continue
		}
		for c := range mean {
			mean[c] /= float64(cnt)
		}
		for t := ph; t < len(series); t += period {
			for c := range series[t] {
				series[t][c] -= mean[c]
			}
		}
	}
}

// LanczosLowPass filters each spatial point of a [time][space] series with
// a Lanczos low-pass filter of the given cutoff (in time steps; the paper
// uses 60 months) and half-width nw. The returned series is shorter by
// 2*nw steps.
func LanczosLowPass(series [][]float64, cutoff float64, nw int) [][]float64 {
	if len(series) <= 2*nw {
		return nil
	}
	w := LanczosWeights(cutoff, nw)
	nsp := len(series[0])
	out := make([][]float64, len(series)-2*nw)
	for t := range out {
		row := make([]float64, nsp)
		for k := -nw; k <= nw; k++ {
			wk := w[k+nw]
			src := series[t+nw+k]
			for c := 0; c < nsp; c++ {
				row[c] += wk * src[c]
			}
		}
		out[t] = row
	}
	return out
}

// LanczosWeights returns the normalized 2*nw+1 Lanczos low-pass weights for
// a cutoff period in steps.
func LanczosWeights(cutoff float64, nw int) []float64 {
	fc := 1 / cutoff
	w := make([]float64, 2*nw+1)
	sum := 0.0
	for k := -nw; k <= nw; k++ {
		var v float64
		if k == 0 {
			v = 2 * fc
		} else {
			x := math.Pi * float64(k)
			sigma := math.Sin(x/float64(nw)) / (x / float64(nw))
			v = math.Sin(2*fc*x) / x * sigma
		}
		w[k+nw] = v
		sum += v
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// EOFResult holds the leading modes of an EOF decomposition.
type EOFResult struct {
	// Patterns[m] is the m-th spatial pattern (unit norm in the weighted
	// inner product).
	Patterns [][]float64
	// PCs[m][t] is the principal-component time series of mode m.
	PCs [][]float64
	// VarFrac[m] is the fraction of total variance explained by mode m.
	VarFrac []float64
}

// EOF computes the leading nModes EOFs of an anomaly [time][space] series
// with spatial weights (typically cell areas). It solves the eigenproblem
// in whichever domain (time or space) is smaller.
func EOF(series [][]float64, weights []float64, nModes int) (*EOFResult, error) {
	nt := len(series)
	if nt < 2 {
		return nil, fmt.Errorf("stats: need at least 2 time samples")
	}
	nsp := len(series[0])
	if len(weights) != nsp {
		return nil, fmt.Errorf("stats: weights length mismatch")
	}
	if nModes > nt-1 {
		nModes = nt - 1
	}
	// Weighted data matrix X[t][c] = sqrt(w_c) * anomaly.
	sq := make([]float64, nsp)
	for c, w := range weights {
		sq[c] = math.Sqrt(math.Max(w, 0))
	}
	x := make([][]float64, nt)
	for t := range x {
		x[t] = make([]float64, nsp)
		for c := 0; c < nsp; c++ {
			x[t][c] = series[t][c] * sq[c]
		}
	}
	// Time-domain covariance C[t1][t2] = X[t1] . X[t2] (nt x nt, usually
	// much smaller than space).
	cov := make([][]float64, nt)
	total := 0.0
	for t1 := 0; t1 < nt; t1++ {
		cov[t1] = make([]float64, nt)
	}
	for t1 := 0; t1 < nt; t1++ {
		for t2 := t1; t2 < nt; t2++ {
			s := dot(x[t1], x[t2])
			cov[t1][t2] = s
			cov[t2][t1] = s
		}
		total += cov[t1][t1]
	}
	vals, vecs := JacobiEigen(cov, 200)
	// Sort descending.
	idx := argsortDesc(vals)
	res := &EOFResult{}
	for m := 0; m < nModes; m++ {
		k := idx[m]
		if vals[k] <= 1e-12*total {
			break
		}
		// Spatial pattern: X^T e / sqrt(lambda), then un-weight.
		pat := make([]float64, nsp)
		for t := 0; t < nt; t++ {
			e := vecs[t][k]
			for c := 0; c < nsp; c++ {
				pat[c] += e * x[t][c]
			}
		}
		norm := math.Sqrt(vals[k])
		pc := make([]float64, nt)
		for t := 0; t < nt; t++ {
			pc[t] = vecs[t][k] * norm
		}
		for c := 0; c < nsp; c++ {
			pat[c] /= norm
			if sq[c] > 0 {
				pat[c] /= sq[c] // back to physical units
			}
			pat[c] *= 1 // pattern in field units per unit PC
		}
		res.Patterns = append(res.Patterns, pat)
		res.PCs = append(res.PCs, pc)
		res.VarFrac = append(res.VarFrac, vals[k]/total)
	}
	if len(res.Patterns) == 0 {
		return nil, fmt.Errorf("stats: degenerate series (no variance)")
	}
	return res, nil
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func argsortDesc(v []float64) []int {
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < len(idx); i++ {
		for j := i + 1; j < len(idx); j++ {
			if v[idx[j]] > v[idx[i]] {
				idx[i], idx[j] = idx[j], idx[i]
			}
		}
	}
	return idx
}

// JacobiEigen diagonalizes a symmetric matrix with cyclic Jacobi rotations,
// returning eigenvalues and the matrix of eigenvectors (columns).
func JacobiEigen(a [][]float64, maxSweeps int) ([]float64, [][]float64) {
	n := len(a)
	m := make([][]float64, n)
	v := make([][]float64, n)
	for i := 0; i < n; i++ {
		m[i] = append([]float64(nil), a[i]...)
		v[i] = make([]float64, n)
		v[i][i] = 1
	}
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += m[i][j] * m[i][j]
			}
		}
		if off < 1e-22*float64(n*n) {
			break
		}
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				if math.Abs(m[p][q]) < 1e-300 {
					continue
				}
				theta := (m[q][q] - m[p][p]) / (2 * m[p][q])
				t := 1 / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				if theta < 0 {
					t = -t
				}
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				for k := 0; k < n; k++ {
					mkp, mkq := m[k][p], m[k][q]
					m[k][p] = c*mkp - s*mkq
					m[k][q] = s*mkp + c*mkq
				}
				for k := 0; k < n; k++ {
					mpk, mqk := m[p][k], m[q][k]
					m[p][k] = c*mpk - s*mqk
					m[q][k] = s*mpk + c*mqk
				}
				for k := 0; k < n; k++ {
					vkp, vkq := v[k][p], v[k][q]
					v[k][p] = c*vkp - s*vkq
					v[k][q] = s*vkp + c*vkq
				}
			}
		}
	}
	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = m[i][i]
	}
	return vals, v
}

// Varimax rotates the given patterns (in the weighted metric) to maximize
// the variance of squared loadings — the rotation the paper applies before
// identifying the two-basin mode. Returns rotated patterns and the rotation
// matrix. Weights enter as in EOF.
func Varimax(patterns [][]float64, weights []float64, maxIter int) ([][]float64, [][]float64) {
	k := len(patterns)
	if k < 2 {
		rot := [][]float64{{1}}
		return patterns, rot
	}
	nsp := len(patterns[0])
	// Work on weighted loadings.
	sq := make([]float64, nsp)
	for c, w := range weights {
		sq[c] = math.Sqrt(math.Max(w, 0))
	}
	L := make([][]float64, nsp) // loadings [space][mode]
	for c := 0; c < nsp; c++ {
		L[c] = make([]float64, k)
		for m := 0; m < k; m++ {
			L[c][m] = patterns[m][c] * sq[c]
		}
	}
	rot := identityMat(k)
	for iter := 0; iter < maxIter; iter++ {
		changed := 0.0
		for p := 0; p < k; p++ {
			for q := p + 1; q < k; q++ {
				var u, v2, num, den float64
				for c := 0; c < nsp; c++ {
					x, y := L[c][p], L[c][q]
					uu := x*x - y*y
					vv := 2 * x * y
					num += 2 * (uu * vv)
					den += uu*uu - vv*vv
					u += uu
					v2 += vv
				}
				num -= 2 * u * v2 / float64(nsp)
				den -= (u*u - v2*v2) / float64(nsp)
				phi := 0.25 * math.Atan2(num, den)
				if math.Abs(phi) < 1e-9 {
					continue
				}
				changed += math.Abs(phi)
				cphi, sphi := math.Cos(phi), math.Sin(phi)
				for c := 0; c < nsp; c++ {
					x, y := L[c][p], L[c][q]
					L[c][p] = cphi*x + sphi*y
					L[c][q] = -sphi*x + cphi*y
				}
				for r := 0; r < k; r++ {
					x, y := rot[r][p], rot[r][q]
					rot[r][p] = cphi*x + sphi*y
					rot[r][q] = -sphi*x + cphi*y
				}
			}
		}
		if changed < 1e-8 {
			break
		}
	}
	out := make([][]float64, k)
	for m := 0; m < k; m++ {
		out[m] = make([]float64, nsp)
		for c := 0; c < nsp; c++ {
			if sq[c] > 0 {
				out[m][c] = L[c][m] / sq[c]
			}
		}
	}
	return out, rot
}

func identityMat(n int) [][]float64 {
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		m[i][i] = 1
	}
	return m
}

// Bias returns the weighted mean of (a - b).
func Bias(a, b, w []float64) float64 {
	num, den := 0.0, 0.0
	for i := range a {
		num += (a[i] - b[i]) * w[i]
		den += w[i]
	}
	return num / den
}

// RMSE returns the weighted root-mean-square difference.
func RMSE(a, b, w []float64) float64 {
	num, den := 0.0, 0.0
	for i := range a {
		d := a[i] - b[i]
		num += d * d * w[i]
		den += w[i]
	}
	return math.Sqrt(num / den)
}

// PatternCorrelation returns the centered, weighted spatial correlation of
// two fields.
func PatternCorrelation(a, b, w []float64) float64 {
	var wa, wb, ws float64
	for i := range a {
		wa += a[i] * w[i]
		wb += b[i] * w[i]
		ws += w[i]
	}
	wa /= ws
	wb /= ws
	var cab, caa, cbb float64
	for i := range a {
		da := a[i] - wa
		db := b[i] - wb
		cab += da * db * w[i]
		caa += da * da * w[i]
		cbb += db * db * w[i]
	}
	if caa <= 0 || cbb <= 0 {
		return 0
	}
	return cab / math.Sqrt(caa*cbb)
}

// Correlation is the plain (unweighted, centered) correlation of two series.
func Correlation(a, b []float64) float64 {
	w := make([]float64, len(a))
	for i := range w {
		w[i] = 1
	}
	return PatternCorrelation(a, b, w)
}
