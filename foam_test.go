package foam

import (
	"math"
	"testing"
)

// quickConfig is the cheap rung of the registry, the fixture of every test
// in this package.
func quickConfig(t *testing.T) Config {
	t.Helper()
	cfg, err := ScenarioConfig("r5-quick")
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestPublicAPISmoke(t *testing.T) {
	m, err := New(quickConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	m.StepDays(1)
	d := m.Diagnostics()
	if math.IsNaN(d.Atm.MeanT) || math.IsNaN(d.Ocn.MeanSST) {
		t.Fatal("NaN diagnostics after one day")
	}
	if len(m.SST()) != m.Ocn.Grid().Size() {
		t.Fatal("SST size mismatch")
	}
}

func TestCompareSSTSelf(t *testing.T) {
	m, err := New(quickConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	// Comparing the climatology against itself must give zero error.
	obs := m.CompareSST(m.CompareSST(m.SST()).Observed)
	if obs.RMSE > 1e-12 || math.Abs(obs.Bias) > 1e-12 {
		t.Fatalf("self comparison: bias %v rmse %v", obs.Bias, obs.RMSE)
	}
	if math.Abs(obs.PatternCorr-1) > 1e-12 {
		t.Fatalf("self correlation %v", obs.PatternCorr)
	}
}

func TestAnalyzeVariabilitySynthetic(t *testing.T) {
	m, err := New(quickConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	g := m.Ocn.Grid()
	mask := m.Ocn.Mask()
	// Synthetic series with a planted two-basin mode plus noise.
	nT := 48
	series := make([][]float64, nT)
	pattern := make([]float64, g.Size())
	for j := 0; j < g.NLat(); j++ {
		for i := 0; i < g.NLon(); i++ {
			c := g.Index(j, i)
			if mask[c] > 0 && g.Lats[j] > 0.4 {
				pattern[c] = 1 // northern-hemisphere loading in both basins
			}
		}
	}
	for ti := 0; ti < nT; ti++ {
		pc := math.Sin(2 * math.Pi * float64(ti) / 36)
		row := make([]float64, g.Size())
		for c := range row {
			if mask[c] > 0 {
				row[c] = 15 + pc*pattern[c] + 0.01*math.Sin(float64(c+ti))
			}
		}
		series[ti] = row
	}
	res, err := AnalyzeVariability(g, mask, series, 12)
	if err != nil {
		t.Fatal(err)
	}
	if res.VarFrac < 0.5 {
		t.Fatalf("planted mode explains only %v", res.VarFrac)
	}
	if res.BasinCorr <= 0 {
		t.Fatalf("two-basin loading should be positive for the planted mode: %v", res.BasinCorr)
	}
}

func TestTracedRunShortConsistency(t *testing.T) {
	res, m, err := RunTraced(quickConfig(t), 0.25, ParallelSpec{AtmRanks: 4, OcnRanks: 1, Link: SPLink})
	if err != nil {
		t.Fatal(err)
	}
	if res.MachineTime <= 0 || res.Speedup <= 0 {
		t.Fatalf("bad trace result %+v", res)
	}
	if res.Efficiency <= 0 || res.Efficiency > 1.001 {
		t.Fatalf("efficiency out of range: %v", res.Efficiency)
	}
	if m.StepCount() == 0 {
		t.Fatal("model did not advance")
	}
	if res.Machine.Ranks() != 5 {
		t.Fatalf("expected 5 rank timelines, got %d", res.Machine.Ranks())
	}
}
