// Package foam is the public API of FOAM-Go, a from-scratch Go
// reproduction of the Fast Ocean-Atmosphere Model ("FOAM: Expanding the
// Horizons of Climate Modeling", SC 1997): a coupled ocean-atmosphere
// general circulation model engineered for very long simulations.
//
// The package wraps the component models (internal/atmos, internal/ocean,
// internal/coupler) behind a small surface:
//
//	cfg, err := foam.ScenarioConfig("paper-foam")
//	m, err := foam.New(cfg)
//	m.StepDays(30)
//	sst := m.SST()
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record of every figure and table.
package foam

import (
	"math"

	"foam/internal/core"
	"foam/internal/data"
	"foam/internal/mp"
	"foam/internal/sphere"
	"foam/internal/stats"
)

// Config configures the coupled model. It is the coupled-core
// configuration re-exported; start from ScenarioConfig.
type Config = core.Config

// ParallelSpec describes a simulated machine partition for traced runs.
type ParallelSpec = core.ParallelSpec

// TraceResult is the outcome of a traced parallel run.
type TraceResult = core.TraceResult

// Model is the coupled FOAM model.
type Model struct {
	*core.Model
}

// New builds a coupled model on the synthetic Earth.
func New(cfg Config) (*Model, error) {
	m, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Model{m}, nil
}

// RunTraced runs the model for the given days while tracing per-step costs,
// then replays the trace on a simulated message-passing machine: the
// mechanism behind the paper's Figure 2 and throughput tables.
func RunTraced(cfg Config, days float64, spec ParallelSpec) (*TraceResult, *Model, error) {
	res, m, err := core.RunTraced(cfg, days, spec)
	if err != nil {
		return nil, nil, err
	}
	return res, &Model{m}, nil
}

// MonthlyMeanSST advances the model by the given number of 30-day months
// and returns the monthly mean SST fields (ocean grid, deg C) — the raw
// material of the Figure 3 and Figure 4 analyses.
func (m *Model) MonthlyMeanSST(months int) [][]float64 {
	cfg := m.Config()
	stepsPerDay := int(86400 / cfg.Atm.Dt)
	out := make([][]float64, 0, months)
	n := len(m.SST())
	for mo := 0; mo < months; mo++ {
		acc := make([]float64, n)
		for d := 0; d < 30; d++ {
			for s := 0; s < stepsPerDay; s++ {
				m.Step()
			}
			for c, v := range m.SST() {
				acc[c] += v / 30
			}
		}
		out = append(out, acc)
	}
	return out
}

// SSTComparison holds the Figure-3 style comparison between the model
// annual-mean SST and the (synthetic) observed climatology.
type SSTComparison struct {
	Model, Observed, Difference []float64
	Bias, RMSE, PatternCorr     float64
	OceanMask                   []bool
}

// CompareSST computes the Figure-3 comparison from an annual-mean model SST
// field on the ocean grid.
func (m *Model) CompareSST(annualMean []float64) *SSTComparison {
	g := m.Ocn.Grid()
	obs := data.AnnualMeanSST(g)
	mask := make([]bool, g.Size())
	w := make([]float64, g.Size())
	diff := make([]float64, g.Size())
	for j := 0; j < g.NLat(); j++ {
		for i := 0; i < g.NLon(); i++ {
			c := g.Index(j, i)
			if m.Ocn.Mask()[c] > 0 {
				mask[c] = true
				w[c] = g.Area(j, i)
				diff[c] = annualMean[c] - obs[c]
			}
		}
	}
	return &SSTComparison{
		Model: annualMean, Observed: obs, Difference: diff,
		Bias:        stats.Bias(annualMean, obs, w),
		RMSE:        stats.RMSE(annualMean, obs, w),
		PatternCorr: stats.PatternCorrelation(annualMean, obs, w),
		OceanMask:   mask,
	}
}

// VariabilityResult is the Figure-4 style analysis: the leading
// VARIMAX-rotated EOF of low-pass-filtered SST anomalies.
type VariabilityResult struct {
	// Pattern is the leading rotated spatial pattern on the ocean grid.
	Pattern []float64
	// PC is the associated time series (months).
	PC []float64
	// VarFrac is the variance fraction of the leading rotated mode.
	VarFrac float64
	// BasinCorr is the correlation sign metric between North Atlantic and
	// North Pacific loadings (positive = same-sign two-basin mode).
	BasinCorr float64
}

// AnalyzeVariability performs the paper's Figure-4 pipeline on a monthly
// SST series: anomalies, seasonal-cycle removal, low-pass filtering
// (cutoffMonths, 60 in the paper), area-weighted EOF, VARIMAX rotation of
// the leading modes, and the two-basin diagnostic.
func AnalyzeVariability(g *sphere.Grid, mask []float64, series [][]float64, cutoffMonths int) (*VariabilityResult, error) {
	cp := make([][]float64, len(series))
	for t := range series {
		cp[t] = append([]float64(nil), series[t]...)
	}
	stats.Anomalies(cp)
	stats.RemoveSeasonalCycle(cp, 12)
	nw := cutoffMonths / 2
	if nw < 6 {
		nw = 6
	}
	lp := stats.LanczosLowPass(cp, float64(cutoffMonths), nw)
	if lp == nil {
		lp = cp // series shorter than the filter: analyze unfiltered
	}
	w := make([]float64, g.Size())
	for j := 0; j < g.NLat(); j++ {
		for i := 0; i < g.NLon(); i++ {
			c := g.Index(j, i)
			if mask[c] > 0 {
				w[c] = g.Area(j, i)
			}
		}
	}
	nModes := 4
	res, err := stats.EOF(lp, w, nModes)
	if err != nil {
		return nil, err
	}
	rotated, _ := stats.Varimax(res.Patterns, w, 200)
	// Variance of each rotated mode from projecting the PCs; approximate by
	// keeping the EOF fractions for the leading mode (rotation mixes them,
	// but the sum is preserved; report the largest).
	out := &VariabilityResult{
		Pattern: rotated[0],
		PC:      res.PCs[0],
		VarFrac: res.VarFrac[0],
	}
	out.BasinCorr = TwoBasinLoading(g, mask, rotated[0])
	return out, nil
}

// TwoBasinLoading returns the product of the mean loadings in the North
// Atlantic and North Pacific boxes, normalized by their magnitudes:
// +1 means a same-sign (paper Figure 4) two-basin structure.
func TwoBasinLoading(g *sphere.Grid, mask []float64, pattern []float64) float64 {
	atl := regionMean(g, mask, pattern, 30, 60, -70, -10)
	pac := regionMean(g, mask, pattern, 25, 55, 145, -135)
	den := (math.Abs(atl) + 1e-12) * (math.Abs(pac) + 1e-12)
	return atl * pac / den
}

func regionMean(g *sphere.Grid, mask, f []float64, lat0, lat1, lon0, lon1 float64) float64 {
	num, den := 0.0, 0.0
	for j := 0; j < g.NLat(); j++ {
		latD := g.Lats[j] * sphere.Rad2Deg
		if latD < lat0 || latD > lat1 {
			continue
		}
		for i := 0; i < g.NLon(); i++ {
			lonD := g.Lons[i] * sphere.Rad2Deg
			if lonD > 180 {
				lonD -= 360
			}
			in := false
			if lon0 <= lon1 {
				in = lonD >= lon0 && lonD <= lon1
			} else {
				in = lonD >= lon0 || lonD <= lon1
			}
			c := g.Index(j, i)
			if in && mask[c] > 0 {
				a := g.Area(j, i)
				num += f[c] * a
				den += a
			}
		}
	}
	if den <= 0 {
		return 0
	}
	return num / den
}

// SPLink is the IBM-SP2-era interconnect model used for simulated-machine
// timings.
var SPLink = mp.SPLink

// Checkpoint is the full coupled state, scheduler phase included, so it
// may be taken at any step. Model.Checkpoint and Model.Restore come from
// the embedded core.Model; a checkpoint that does not fit the model is
// ErrCheckpointMismatch and leaves it as it was. Restart chains reproduce
// uninterrupted runs bit-for-bit.
type Checkpoint = core.Checkpoint

// LoadCheckpointFile reads a checkpoint written with Checkpoint.SaveFile.
// A file that is not a version-1 checkpoint (or is truncated) is
// ErrCheckpointFormat, a failed checksum ErrCheckpointCorrupt.
func LoadCheckpointFile(path string) (*Checkpoint, error) {
	return core.LoadCheckpointFile(path)
}

// The ways a checkpoint is refused; test for them with errors.Is.
var (
	ErrCheckpointFormat   = core.ErrCheckpointFormat
	ErrCheckpointCorrupt  = core.ErrCheckpointCorrupt
	ErrCheckpointMismatch = core.ErrCheckpointMismatch
)
