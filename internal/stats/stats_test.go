package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAnomaliesZeroMean(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	series := make([][]float64, 50)
	for t2 := range series {
		series[t2] = make([]float64, 10)
		for c := range series[t2] {
			series[t2][c] = rng.NormFloat64() + float64(c)
		}
	}
	means := Anomalies(series)
	for c := 0; c < 10; c++ {
		s := 0.0
		for t2 := range series {
			s += series[t2][c]
		}
		if math.Abs(s) > 1e-9 {
			t.Fatalf("column %d mean not removed: %v", c, s)
		}
		if math.Abs(means[c]-float64(c)) > 0.5 {
			t.Fatalf("column %d mean estimate %v", c, means[c])
		}
	}
}

func TestRemoveSeasonalCycle(t *testing.T) {
	// Pure 12-step cycle must vanish entirely.
	series := make([][]float64, 120)
	for ti := range series {
		series[ti] = []float64{math.Sin(2 * math.Pi * float64(ti%12) / 12)}
	}
	RemoveSeasonalCycle(series, 12)
	for ti := range series {
		if math.Abs(series[ti][0]) > 1e-12 {
			t.Fatalf("seasonal cycle survives at %d: %v", ti, series[ti][0])
		}
	}
}

func TestLanczosLowPassRemovesFastKeepsSlow(t *testing.T) {
	n := 400
	series := make([][]float64, n)
	for ti := range series {
		slow := math.Sin(2 * math.Pi * float64(ti) / 120) // period 120
		fast := math.Sin(2 * math.Pi * float64(ti) / 6)   // period 6
		series[ti] = []float64{slow + fast}
	}
	out := LanczosLowPass(series, 60, 30)
	// Compare against the pure slow signal over the valid window.
	var errSlow, ampFast float64
	for ti := range out {
		want := math.Sin(2 * math.Pi * float64(ti+30) / 120)
		errSlow += math.Abs(out[ti][0] - want)
		_ = ampFast
	}
	errSlow /= float64(len(out))
	// A Lanczos window attenuates the passband slightly near the cutoff;
	// ~10% is expected for a period-120 signal with a 60-step cutoff.
	if errSlow > 0.15 {
		t.Fatalf("low-pass distorted the slow signal: mean abs err %v", errSlow)
	}
	// The fast signal must be essentially gone: correlate output with it.
	var fastAmp float64
	for ti := range out {
		fastAmp += out[ti][0] * math.Sin(2*math.Pi*float64(ti+30)/6)
	}
	fastAmp = math.Abs(fastAmp) * 2 / float64(len(out))
	if fastAmp > 0.02 {
		t.Fatalf("fast signal survives: amplitude %v", fastAmp)
	}
}

func TestLanczosWeightsNormalized(t *testing.T) {
	w := LanczosWeights(60, 30)
	s := 0.0
	for _, v := range w {
		s += v
	}
	if math.Abs(s-1) > 1e-12 {
		t.Fatalf("weights sum %v", s)
	}
	if len(w) != 61 {
		t.Fatalf("weights length %d", len(w))
	}
}

func TestJacobiEigenKnownMatrix(t *testing.T) {
	a := [][]float64{
		{2, 1},
		{1, 2},
	}
	vals, vecs := JacobiEigen(a, 50)
	// Eigenvalues 1 and 3.
	lo, hi := math.Min(vals[0], vals[1]), math.Max(vals[0], vals[1])
	if math.Abs(lo-1) > 1e-10 || math.Abs(hi-3) > 1e-10 {
		t.Fatalf("eigenvalues %v", vals)
	}
	// Check A v = lambda v for each column.
	for k := 0; k < 2; k++ {
		for i := 0; i < 2; i++ {
			av := a[i][0]*vecs[0][k] + a[i][1]*vecs[1][k]
			if math.Abs(av-vals[k]*vecs[i][k]) > 1e-10 {
				t.Fatalf("eigenvector %d wrong", k)
			}
		}
	}
}

func TestEOFRecoversPlantedMode(t *testing.T) {
	// Construct data = pc(t) * pattern(c) + small noise; EOF mode 1 must
	// recover the pattern up to sign.
	rng := rand.New(rand.NewSource(7))
	nt, nsp := 80, 40
	pattern := make([]float64, nsp)
	for c := range pattern {
		pattern[c] = math.Sin(2 * math.Pi * float64(c) / float64(nsp))
	}
	series := make([][]float64, nt)
	for ti := range series {
		pc := 3 * math.Sin(2*math.Pi*float64(ti)/20)
		series[ti] = make([]float64, nsp)
		for c := range pattern {
			series[ti][c] = pc*pattern[c] + 0.05*rng.NormFloat64()
		}
	}
	Anomalies(series)
	w := make([]float64, nsp)
	for i := range w {
		w[i] = 1
	}
	res, err := EOF(series, w, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.VarFrac[0] < 0.9 {
		t.Fatalf("planted mode explains only %v", res.VarFrac[0])
	}
	corr := Correlation(res.Patterns[0], pattern)
	if math.Abs(corr) < 0.99 {
		t.Fatalf("pattern correlation %v", corr)
	}
	// Reconstruction check: pc*pattern should match the data for mode 1.
	recErr := 0.0
	for ti := 0; ti < nt; ti++ {
		for c := 0; c < nsp; c++ {
			rec := res.PCs[0][ti] * res.Patterns[0][c]
			recErr += math.Abs(rec - series[ti][c])
		}
	}
	recErr /= float64(nt * nsp)
	if recErr > 0.1 {
		t.Fatalf("mode-1 reconstruction error %v", recErr)
	}
}

func TestEOFVarianceFractionsSumBelowOne(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	nt, nsp := 30, 20
	series := make([][]float64, nt)
	for ti := range series {
		series[ti] = make([]float64, nsp)
		for c := range series[ti] {
			series[ti][c] = rng.NormFloat64()
		}
	}
	Anomalies(series)
	w := make([]float64, nsp)
	for i := range w {
		w[i] = 1
	}
	res, err := EOF(series, w, 10)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for i, v := range res.VarFrac {
		if v < 0 || v > 1 {
			t.Fatalf("varfrac out of range: %v", v)
		}
		if i > 0 && v > res.VarFrac[i-1]+1e-12 {
			t.Fatal("variance fractions not descending")
		}
		sum += v
	}
	if sum > 1+1e-9 {
		t.Fatalf("variance fractions sum %v", sum)
	}
}

func TestVarimaxSimpleStructure(t *testing.T) {
	// Two mixed localized patterns: varimax should unmix them.
	nsp := 40
	p1 := make([]float64, nsp)
	p2 := make([]float64, nsp)
	for c := 0; c < nsp/2; c++ {
		p1[c] = 1
	}
	for c := nsp / 2; c < nsp; c++ {
		p2[c] = 1
	}
	// Mixed at 45 degrees.
	m1 := make([]float64, nsp)
	m2 := make([]float64, nsp)
	for c := 0; c < nsp; c++ {
		m1[c] = (p1[c] + p2[c]) / math.Sqrt2
		m2[c] = (p1[c] - p2[c]) / math.Sqrt2
	}
	w := make([]float64, nsp)
	for i := range w {
		w[i] = 1
	}
	rotated, rot := Varimax([][]float64{m1, m2}, w, 100)
	// Each rotated pattern should be localized: its energy concentrated in
	// one half.
	for m := 0; m < 2; m++ {
		var left, right float64
		for c := 0; c < nsp/2; c++ {
			left += rotated[m][c] * rotated[m][c]
		}
		for c := nsp / 2; c < nsp; c++ {
			right += rotated[m][c] * rotated[m][c]
		}
		frac := math.Max(left, right) / (left + right)
		if frac < 0.95 {
			t.Fatalf("mode %d not simple after varimax: %v", m, frac)
		}
	}
	// Rotation matrix must be orthogonal.
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			s := rot[0][i]*rot[0][j] + rot[1][i]*rot[1][j]
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(s-want) > 1e-8 {
				t.Fatalf("rotation not orthogonal")
			}
		}
	}
}

func TestFieldMetrics(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	b := []float64{1, 2, 3, 4}
	w := []float64{1, 1, 1, 1}
	if Bias(a, b, w) != 0 || RMSE(a, b, w) != 0 {
		t.Fatal("identical fields should have zero bias and RMSE")
	}
	if c := PatternCorrelation(a, b, w); math.Abs(c-1) > 1e-12 {
		t.Fatalf("self correlation %v", c)
	}
	neg := []float64{4, 3, 2, 1}
	if c := PatternCorrelation(a, neg, w); math.Abs(c+1) > 1e-12 {
		t.Fatalf("anti correlation %v", c)
	}
	shift := []float64{3, 4, 5, 6}
	if Bias(shift, a, w) != 2 {
		t.Fatal("bias of +2 expected")
	}
	if RMSE(shift, a, w) != 2 {
		t.Fatal("rmse of 2 expected")
	}
	if c := PatternCorrelation(a, shift, w); math.Abs(c-1) > 1e-12 {
		t.Fatal("correlation is shift-invariant")
	}
}

// Property: EOF variance fractions are invariant under orthogonal scrambling
// of time order... (weaker: under sign flip of the data).
func TestEOFSignInvarianceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nt, nsp := 12+rng.Intn(10), 8+rng.Intn(10)
		s1 := make([][]float64, nt)
		s2 := make([][]float64, nt)
		for ti := 0; ti < nt; ti++ {
			s1[ti] = make([]float64, nsp)
			s2[ti] = make([]float64, nsp)
			for c := 0; c < nsp; c++ {
				v := rng.NormFloat64()
				s1[ti][c] = v
				s2[ti][c] = -v
			}
		}
		w := make([]float64, nsp)
		for i := range w {
			w[i] = 1 + rng.Float64()
		}
		Anomalies(s1)
		Anomalies(s2)
		r1, err1 := EOF(s1, w, 3)
		r2, err2 := EOF(s2, w, 3)
		if err1 != nil || err2 != nil {
			return false
		}
		for m := range r1.VarFrac {
			if math.Abs(r1.VarFrac[m]-r2.VarFrac[m]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestRepeatable requires every analysis of the package to return the same
// bits on every call with the same input. The package sums in fixed orders
// only, so a result that depends on map iteration order, a clock or a
// random source shows as a difference between calls; the calls repeat
// because Go randomises map iteration.
func TestRepeatable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const nt, nsp = 72, 12
	base := make([][]float64, nt)
	for ti := range base {
		base[ti] = make([]float64, nsp)
		for c := range base[ti] {
			base[ti][c] = math.Sin(2*math.Pi*float64(ti)/12+float64(c)) + 0.3*rng.NormFloat64()
		}
	}
	weights := make([]float64, nsp)
	for c := range weights {
		weights[c] = 1 + 0.1*float64(c)
	}
	run := func() []float64 {
		series := make([][]float64, nt)
		for ti := range series {
			series[ti] = append([]float64(nil), base[ti]...)
		}
		RemoveSeasonalCycle(series, 12)
		out := Anomalies(series)
		out = append(out, LanczosWeights(24, 6)...)
		lp := LanczosLowPass(series, 24, 6)
		for _, row := range lp {
			out = append(out, row...)
		}
		res, err := EOF(series, weights, 3)
		if err != nil {
			t.Fatal(err)
		}
		for m := range res.Patterns {
			out = append(out, res.Patterns[m]...)
			out = append(out, res.PCs[m]...)
		}
		out = append(out, res.VarFrac...)
		rot, rmat := Varimax(res.Patterns, weights, 50)
		for i := range rot {
			out = append(out, rot[i]...)
			out = append(out, rmat[i]...)
		}
		vals, vecs := JacobiEigen([][]float64{{4, 1, 0.5}, {1, 3, 0.2}, {0.5, 0.2, 2}}, 50)
		out = append(out, vals...)
		for _, v := range vecs {
			out = append(out, v...)
		}
		a, b := base[0], base[1]
		return append(out, Bias(a, b, weights), RMSE(a, b, weights),
			PatternCorrelation(a, b, weights), Correlation(a, b))
	}
	want := run()
	for i := 0; i < 20; i++ {
		got := run()
		for k := range want {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("call %d: value %d is %v, first call gave %v", i+1, k, got[k], want[k])
			}
		}
	}
}
