// Command foam-bench regenerates every evaluation artifact of the paper —
// Figures 2, 3 and 4 and the Section 4-5 performance claims — from the
// FOAM-Go reproduction. See DESIGN.md section 4 for the experiment index
// and EXPERIMENTS.md for recorded results. It records no wall-clock
// trajectory: `go run ./bench` is the one instrument for that.
//
// Usage:
//
//	foam-bench [-run E1,E2,...] [-full] [-workers N] [-cpuprofile cpu.out] [-memprofile mem.out]
//
// By default every experiment runs in a reduced configuration that
// completes in minutes; -full uses the paper's R15 + 128x128 configuration
// and much longer simulations where applicable.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"foam"
	"foam/internal/atmos"
	"foam/internal/baseline"
	"foam/internal/diag"
	"foam/internal/ocean"
	"foam/internal/spectral"
)

var workers = flag.Int("workers", 1, "shared-memory worker pool size for coupled runs (0 = all CPUs, 1 = serial); bit-identical for any value")

// experiment is one row of the paper's evaluation (DESIGN.md section 4).
type experiment struct {
	id, name string
	run      func(w io.Writer, h horizon) error
}

var experiments = []experiment{
	{"E1", "Figure 2: per-processor time allocation", runE1},
	{"E2", "Figure 3: annual-mean SST vs climatology", runE2},
	{"E3", "Figure 4: two-basin low-frequency variability", runE3},
	{"E4", "Section 5: coupled throughput and scaling", runE4},
	{"E5", "Section 4.2: ocean throughput vs conventional baseline", runE5},
	{"E6", "Section 5: atmosphere/ocean cost ratio", runE6},
	{"E7", "Section 5: FOAM vs conventional coupled model", runE7},
	{"E8", "Section 2: cost vs resolution (inverse-cube law)", runE8},
	{"E9", "Section 4.3: closed hydrological cycle", runE9},
	{"E10", "Section 4.2: ocean speed-technique ablations", runE10},
	{"E11", "Section 6: CCM2 vs CCM3 physics (tropical Pacific)", runE11},
}

// horizon sizes one pass over the experiments. main derives it from -full
// with both scales at 1, the lengths EXPERIMENTS.md records; the tests
// shrink the scales so the same code paths fit a unit-test budget.
type horizon struct {
	full       bool    // the paper's R15 + 128x128x16 configuration
	dayScale   float64 // multiplies the day-length runs
	monthScale float64 // multiplies the month-length runs
}

// months picks the reduced or full month count and scales it, never below
// one month.
func (h horizon) months(reduced, full int) int {
	if h.full {
		reduced = full
	}
	return max(1, int(float64(reduced)*h.monthScale))
}

// config is the coupled configuration of the horizon.
func (h horizon) config() (foam.Config, error) {
	name := "r5-quick"
	if h.full {
		name = "paper-foam"
	}
	cfg, err := foam.ScenarioConfig(name)
	cfg.Workers = *workers
	return cfg, err
}

// model builds the horizon's coupled model.
func (h horizon) model() (*foam.Model, error) {
	cfg, err := h.config()
	if err != nil {
		return nil, err
	}
	return foam.New(cfg)
}

func experimentIDs() string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return strings.Join(ids, ",")
}

// selectExperiments resolves a -run list against the table, in table order; empty ids are ignored.
func selectExperiments(list string) ([]experiment, error) {
	want := map[string]bool{}
	for _, id := range strings.FieldsFunc(list, func(r rune) bool { return r == ',' || r == ' ' }) {
		want[strings.ToUpper(id)] = true
	}
	var sel []experiment
	for _, e := range experiments {
		if want[e.id] {
			sel = append(sel, e)
			delete(want, e.id)
		}
	}
	for id := range want {
		return nil, fmt.Errorf("unknown experiment %q (have %s)", id, experimentIDs())
	}
	return sel, nil
}

// runExperiment runs one experiment between its banner and closing line.
func runExperiment(w io.Writer, e experiment, h horizon) error {
	fmt.Fprintf(w, "\n================ %s — %s ================\n", e.id, e.name)
	t0 := time.Now()
	if err := e.run(w, h); err != nil {
		return fmt.Errorf("%s: %w", e.id, err)
	}
	fmt.Fprintf(w, "[%s completed in %v]\n", e.id, time.Since(t0).Round(time.Millisecond))
	return nil
}

func main() { os.Exit(run()) }

func run() int {
	runList := flag.String("run", experimentIDs(), "comma-separated experiment ids")
	full := flag.Bool("full", false, "use the paper's full configuration (much slower)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file after the selected experiments")
	flag.Parse()

	sel, err := selectExperiments(*runList)
	if err != nil {
		fmt.Fprintf(os.Stderr, "foam-bench: %v\n", err)
		return 2
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "foam-bench: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "foam-bench: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "foam-bench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // flush dead objects so the profile shows live state
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "foam-bench: %v\n", err)
			}
		}()
	}

	h := horizon{full: *full, dayScale: 1, monthScale: 1}
	for _, e := range sel {
		if err := runExperiment(os.Stdout, e, h); err != nil {
			fmt.Fprintf(os.Stderr, "foam-bench: %v\n", err)
			return 1
		}
	}
	return 0
}

// E1 — Figure 2: trace one simulated day on 16+1 and 32+2 ranks; the ocean
// keeps up with 16 atmosphere ranks but not with 32 (in the paper's cost
// ratio; our measured ratio is reported alongside).
func runE1(w io.Writer, h horizon) error {
	cfg, err := h.config()
	if err != nil {
		return err
	}
	for _, spec := range []foam.ParallelSpec{
		{AtmRanks: 16, OcnRanks: 1, Link: foam.SPLink},
		{AtmRanks: 32, OcnRanks: 2, Link: foam.SPLink},
	} {
		res, _, err := foam.RunTraced(cfg, h.dayScale, spec)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\n--- %d atm + %d ocn ranks: speedup %.0fx, efficiency %.2f ---\n",
			spec.AtmRanks, spec.OcnRanks, res.Speedup, res.Efficiency)
		diag.Gantt(w, res.Machine, 100)
		diag.PrintSegmentTable(w, res.Machine)
		// The paper's claim: does the ocean rank finish before the
		// atmosphere needs it?
		busy := 0.0
		for _, t := range diag.SegmentTotals(res.Machine) {
			if t.Label == "ocean" {
				busy = t.Seconds / float64(spec.OcnRanks)
			}
		}
		verdict := "is the bottleneck"
		if busy < 0.95*res.MachineTime {
			verdict = "keeps up"
		}
		fmt.Fprintf(w, "ocean busy %.3fs vs machine time %.3fs (ocean %s)\n", busy, res.MachineTime, verdict)
	}
	return nil
}

// E2 — Figure 3: run and compare the model's annual-mean SST against the
// synthetic observed climatology.
func runE2(w io.Writer, h horizon) error {
	m, err := h.model()
	if err != nil {
		return err
	}
	months := h.months(12, 24)
	fmt.Fprintf(w, "running %d simulated months for the annual mean...\n", months)
	series := m.MonthlyMeanSST(months)
	year := series[max(0, len(series)-12):]
	ann := make([]float64, len(series[0]))
	for _, row := range year {
		for c, v := range row {
			ann[c] += v / float64(len(year))
		}
	}
	cmp := m.CompareSST(ann)
	fmt.Fprintf(w, "global bias:          %+.2f K\n", cmp.Bias)
	fmt.Fprintf(w, "RMSE:                 %.2f K\n", cmp.RMSE)
	fmt.Fprintf(w, "pattern correlation:  %.3f\n", cmp.PatternCorr)
	diag.AsciiMap(w, m.Ocn.Grid(), cmp.Model, cmp.OceanMask, 96, "\n(a) model annual-mean SST")
	diag.AsciiMap(w, m.Ocn.Grid(), cmp.Observed, cmp.OceanMask, 96, "\n(b) observed climatology (synthetic stand-in)")
	diag.AsciiMap(w, m.Ocn.Grid(), cmp.Difference, cmp.OceanMask, 96, "\n(c) model minus observed")
	return nil
}

// E3 — Figure 4: variability analysis of a long monthly SST series.
func runE3(w io.Writer, h horizon) error {
	m, err := h.model()
	if err != nil {
		return err
	}
	months := max(13, h.months(60, 240)) // seasonal-cycle removal leaves no variance in a single year
	fmt.Fprintf(w, "running %d simulated months...\n", months)
	series := m.MonthlyMeanSST(months)
	res, err := foam.AnalyzeVariability(m.Ocn.Grid(), m.Ocn.Mask(), series, 60)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "leading rotated EOF explains %.1f%% of low-passed variance (paper: ~15%%)\n", 100*res.VarFrac)
	fmt.Fprintf(w, "two-basin loading product: %+.2f (paper: positive, N.Atlantic with N.Pacific)\n", res.BasinCorr)
	mask := make([]bool, len(m.Ocn.Mask()))
	for c, v := range m.Ocn.Mask() {
		mask[c] = v > 0
	}
	diag.AsciiMap(w, m.Ocn.Grid(), res.Pattern, mask, 96, "\n(a) spatial pattern")
	return nil
}

// E4 — coupled throughput table across machine sizes.
func runE4(w io.Writer, h horizon) error {
	cfg, err := h.config()
	if err != nil {
		return err
	}
	days := 0.5
	if h.full {
		days = 1
	}
	specs := []foam.ParallelSpec{
		{AtmRanks: 4, OcnRanks: 1, Link: foam.SPLink},
		{AtmRanks: 8, OcnRanks: 1, Link: foam.SPLink},
		{AtmRanks: 16, OcnRanks: 1, Link: foam.SPLink},
		{AtmRanks: 32, OcnRanks: 2, Link: foam.SPLink},
		{AtmRanks: 64, OcnRanks: 2, Link: foam.SPLink},
	}
	fmt.Fprintf(w, "%6s %6s %6s %12s %10s\n", "nodes", "atm", "ocn", "speedup", "efficiency")
	for _, spec := range specs {
		res, _, err := foam.RunTraced(cfg, days*h.dayScale, spec)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%6d %6d %6d %11.0fx %9.2f\n",
			spec.AtmRanks+spec.OcnRanks, spec.AtmRanks, spec.OcnRanks, res.Speedup, res.Efficiency)
	}
	fmt.Fprintln(w, "(paper: near-linear over 8/16/32 atmosphere ranks; collapse when the")
	fmt.Fprintln(w, " latitude-pair decomposition runs out — visible here as falling efficiency)")
	return nil
}

// E5 — standalone ocean throughput and the conventional-baseline ratio.
func runE5(w io.Writer, h horizon) error {
	cfg := ocean.DefaultConfig()
	if !h.full {
		cfg.NLat, cfg.NLon, cfg.NLev = 64, 64, 8
	}
	foamSec, baseSec, ratio, err := baseline.SpeedAdvantage(cfg, nil, 3)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "grid %dx%dx%d\n", cfg.NLat, cfg.NLon, cfg.NLev)
	fmt.Fprintf(w, "FOAM formulation:          %8.3f s per simulated day => %8.0fx real time (1 core)\n",
		foamSec, 86400/foamSec)
	fmt.Fprintf(w, "conventional (unsplit):    %8.3f s per simulated day => %8.0fx real time (1 core)\n",
		baseSec, 86400/baseSec)
	fmt.Fprintf(w, "computation-per-simulated-time advantage: %.1fx (paper: ~10x)\n", ratio)
	return nil
}

// E6 — atmosphere vs ocean cost per simulated day (paper: ~16:1). Always
// uses the paper's full R15 + 128x128 configuration: the ratio is the claim.
func runE6(w io.Writer, h horizon) error {
	h.full = true
	m, err := h.model()
	if err != nil {
		return err
	}
	cfg := m.Config()
	m.StepDays(0.25 * h.dayScale) // warm up
	steps := int(h.dayScale * 86400 / cfg.Atm.Dt)
	var atmT, ocnT float64
	for s := 0; s < steps; s++ {
		ta := time.Now()
		m.Step()
		dt := time.Since(ta).Seconds()
		if m.StepCount()%cfg.OceanEvery == 0 {
			ocnT += m.Ocn.LastStepSeconds()
			atmT += dt - m.Ocn.LastStepSeconds()
		} else {
			atmT += dt
		}
	}
	fmt.Fprintf(w, "atmosphere: %.3f s per simulated day\n", atmT/h.dayScale)
	fmt.Fprintf(w, "ocean:      %.3f s per simulated day\n", ocnT/h.dayScale)
	fmt.Fprintf(w, "ratio:      %.1f : 1  (paper: ~16:1 for R15 vs 128x128)\n", atmT/ocnT)
	return nil
}

// E7 — FOAM vs a conventional coupled configuration.
func runE7(w io.Writer, h horizon) error {
	m, err := h.model()
	if err != nil {
		return err
	}
	cfg := m.Config()
	m.StepDays(0.25 * h.dayScale)
	days := 0.5 * h.dayScale
	t0 := time.Now()
	m.StepDays(days)
	foamSec := time.Since(t0).Seconds() / days

	// Conventional ocean at the same resolution inside the same harness.
	oc := ocean.BaselineConfig()
	oc.NLat, oc.NLon, oc.NLev = cfg.Ocn.NLat, cfg.Ocn.NLon, cfg.Ocn.NLev
	oc.LatSouth, oc.LatNorth = cfg.Ocn.LatSouth, cfg.Ocn.LatNorth
	baseOcnSec, err := baseline.OceanSecondsPerDay(oc, nil, 3)
	if err != nil {
		return err
	}
	// The conventional coupled model pays the same atmosphere plus the
	// unsplit ocean.
	atmSec := foamSec // FOAM cost is nearly all atmosphere
	convSec := atmSec + baseOcnSec
	fmt.Fprintf(w, "FOAM coupled:          %8.2f s per simulated day => %7.0fx real time (1 core)\n",
		foamSec, 86400/foamSec)
	fmt.Fprintf(w, "conventional coupled:  %8.2f s per simulated day => %7.0fx real time (1 core)\n",
		convSec, 86400/convSec)
	fmt.Fprintf(w, "throughput advantage: %.1fx (paper: >= 3x vs NCAR CSM)\n", convSec/foamSec)
	return nil
}

// E8 — atmosphere cost across truncations; fit the power law.
func runE8(w io.Writer, h horizon) error {
	truncs := []int{5, 8, 10, 15}
	days := 0.5 * h.dayScale
	type pt struct{ dx, cost float64 }
	var pts []pt
	fmt.Fprintf(w, "%6s %10s %10s %14s\n", "trunc", "grid", "dt(s)", "s/sim-day")
	for _, M := range truncs {
		cfg := atmos.ConfigForTruncation(spectral.Rhomboidal(M), 8)
		cfg.Adiabatic = false
		m, err := atmos.New(cfg, nil)
		if err != nil {
			return err
		}
		steps := int(days * 86400 / cfg.Dt)
		m.Step() // warm up
		t0 := time.Now()
		for s := 0; s < steps; s++ {
			m.Step()
		}
		cost := time.Since(t0).Seconds() / days
		fmt.Fprintf(w, "R%-5d %6dx%-3d %10.0f %14.2f\n", M, cfg.NLat, cfg.NLon, cfg.Dt, cost)
		pts = append(pts, pt{dx: 1 / float64(M), cost: cost})
	}
	// log-log slope between R5 and R15.
	slope := math.Log(pts[len(pts)-1].cost/pts[0].cost) /
		math.Log(pts[0].dx/pts[len(pts)-1].dx)
	fmt.Fprintf(w, "fitted exponent: cost ~ (spacing)^-%.2f (paper: inverse cube)\n", slope)
	return nil
}

// E9 — hydrological closure (also a unit test; here with numbers printed).
func runE9(w io.Writer, h horizon) error {
	m, err := h.model()
	if err != nil {
		return err
	}
	m.StepDays(2 * h.dayScale)
	m.Cpl.ResetBudget()
	store0 := m.Cpl.River.TotalStorage() * 1000
	m.StepDays(5 * h.dayScale)
	b := m.Cpl.Budget()
	store1 := m.Cpl.River.TotalStorage() * 1000
	fmt.Fprintf(w, "precipitation on land:  %12.4e kg\n", b.Precip)
	fmt.Fprintf(w, "evaporation from land:  %12.4e kg\n", b.Evap)
	fmt.Fprintf(w, "runoff to rivers:       %12.4e kg\n", b.Runoff)
	fmt.Fprintf(w, "river inflow to ocean:  %12.4e kg\n", b.RiverToOcean)
	resid := b.Runoff - b.RiverToOcean - (store1 - store0)
	fmt.Fprintf(w, "routing residual:       %12.4e kg (%.4f%% of runoff)\n", resid, 100*resid/math.Max(b.Runoff, 1))
	return nil
}

// E10 — ablate the ocean's three speed techniques.
func runE10(w io.Writer, h horizon) error {
	base := ocean.DefaultConfig()
	if !h.full {
		base.NLat, base.NLon, base.NLev = 64, 64, 8
	}
	type variant struct {
		name string
		mod  func(*ocean.Config)
	}
	variants := []variant{
		{"FOAM (split, slowdown 16, subcycled)", func(c *ocean.Config) {}},
		{"slowdown 4", func(c *ocean.Config) {
			c.Slowdown = 4
			c.DtBaro = c.DtBaro / 4
		}},
		{"no subcycling (internal = tracer step)", func(c *ocean.Config) {
			c.DtInternal = c.DtTracer / 8
			c.DtBaro = c.DtInternal / 2
			c.DtTracer = c.DtInternal // everything at the short step
		}},
		{"unsplit + physical gravity (baseline)", func(c *ocean.Config) {
			*c = ocean.BaselineConfig()
			c.NLat, c.NLon, c.NLev = base.NLat, base.NLon, base.NLev
		}},
	}
	fmt.Fprintf(w, "%-42s %14s %12s\n", "variant", "s/sim-day", "x realtime")
	for _, v := range variants {
		cfg := base
		v.mod(&cfg)
		sec, err := baseline.OceanSecondsPerDay(cfg, nil, 3)
		if err != nil {
			return fmt.Errorf("%s: %w", v.name, err)
		}
		fmt.Fprintf(w, "%-42s %14.3f %12.0f\n", v.name, sec, 86400/sec)
	}
	return nil
}

// E11 — the paper's Section 6 story: swapping CCM2 moisture physics for
// CCM3 "vastly improved" the tropical Pacific. Run both physics versions
// and compare the tropical-Pacific SST error against the climatology.
func runE11(w io.Writer, h horizon) error {
	months := h.months(6, 24)
	type result struct {
		name               string
		bias, rmse, corr   float64
		warmPoolColdTongue float64
	}
	var results []result
	for _, phys := range []atmos.PhysicsVersion{atmos.PhysicsCCM2, atmos.PhysicsCCM3} {
		cfg, err := h.config()
		if err != nil {
			return err
		}
		cfg.Atm.Physics = phys
		m, err := foam.New(cfg)
		if err != nil {
			return err
		}
		series := m.MonthlyMeanSST(months)
		ann := series[len(series)-1]
		// Tropical Pacific box metrics.
		g := m.Ocn.Grid()
		var wpSum, wpW, ctSum, ctW float64
		var berr, brms, bw float64
		obs := m.CompareSST(ann)
		for j := 0; j < g.NLat(); j++ {
			latD := g.Lats[j] * 180 / math.Pi
			if latD < -15 || latD > 15 {
				continue
			}
			for i := 0; i < g.NLon(); i++ {
				lonD := g.Lons[i] * 180 / math.Pi
				if lonD > 180 {
					lonD -= 360
				}
				c := g.Index(j, i)
				if !obs.OceanMask[c] {
					continue
				}
				a := g.Area(j, i)
				if lonD > 120 && lonD < 170 { // warm pool
					wpSum += ann[c] * a
					wpW += a
				}
				if lonD > -140 && lonD < -90 { // cold tongue
					ctSum += ann[c] * a
					ctW += a
				}
				d := ann[c] - obs.Observed[c]
				berr += d * a
				brms += d * d * a
				bw += a
			}
		}
		results = append(results, result{
			name: phys.String(),
			bias: berr / bw, rmse: math.Sqrt(brms / bw), corr: obs.PatternCorr,
			warmPoolColdTongue: wpSum/math.Max(wpW, 1) - ctSum/math.Max(ctW, 1),
		})
	}
	fmt.Fprintf(w, "%-6s %12s %12s %14s %22s\n", "phys", "trop bias K", "trop RMSE K", "global corr", "warmpool-coldtongue K")
	for _, r := range results {
		fmt.Fprintf(w, "%-6s %12.2f %12.2f %14.3f %22.2f\n", r.name, r.bias, r.rmse, r.corr, r.warmPoolColdTongue)
	}
	fmt.Fprintln(w, "(paper: CCM3 moisture physics vastly improved the tropical Pacific;")
	fmt.Fprintln(w, " observed warm pool - cold tongue contrast is ~4-5 K)")
	return nil
}
