package main

import (
	"bytes"
	"encoding/gob"
	"math"

	"foam/internal/data"
	"foam/internal/ocean"
	"foam/internal/sphere"
)

// oceanRun is ocean_128 in flight: the stand-alone 128x128x16 ocean on the
// earth bathymetry under fixed analytic forcing. The ocean does all the
// work; atmosphere, spectral transform and coupler do none.
type oceanRun struct {
	in   oceanInputs
	cfg  ocean.Config
	grid *sphere.Grid
	kmt  []int
	m    *ocean.Model
	f    *ocean.Forcing
	tr   *tracer

	snapBytes []byte          // the spun-up state every replay restores
	snap      *ocean.Snapshot // decoded by the restore op, reused by lifecycle
	saved     bytes.Buffer

	sst        []float64
	ocnT, ocnS [][]float64
	diag       ocean.Diagnostics
}

// buildCold is one cold construction: grid, bathymetry (the dominant cost)
// and model.
func (o *oceanRun) buildCold() error {
	cfg := ocean.DefaultConfig()
	grid := sphere.NewMercatorGrid(cfg.NLat, cfg.NLon, cfg.LatSouth, cfg.LatNorth)
	kmt := data.Earth().OceanKMT(grid, cfg.NLev)
	m, err := ocean.NewOnGrid(cfg, kmt, grid)
	if err != nil {
		return err
	}
	o.cfg, o.grid, o.kmt, o.m = cfg, grid, kmt, m
	return nil
}

// forcing fills the fixed analytic wind stress and heat flux.
func (o *oceanRun) forcing() *ocean.Forcing {
	g := o.grid
	f := ocean.NewForcing(g.Size())
	for j, lat := range g.Lats {
		for i, lon := range g.Lons {
			c := g.Index(j, i)
			f.TauX[c] = -o.in.TauAmp * math.Cos(3*lat+o.in.TauPhase)
			f.Heat[c] = o.in.HeatAmp * (math.Cos(2*lat) - 0.3 + 0.2*math.Sin(lon+o.in.HeatPhase))
		}
	}
	return f
}

// script is the block: restore the spun-up state, step one simulated day,
// save, read the state out, and fork a fresh model on the shared grid.
func (o *oceanRun) script(fixed, read int) []op {
	var s []op
	add := func(kind string, reps int, run func() error) {
		for i := 0; i < reps; i++ {
			s = append(s, op{opMeta{kind: kind, group: -1}, run})
		}
	}
	add("restore", fixed, func() error {
		var snap ocean.Snapshot
		if err := gob.NewDecoder(bytes.NewReader(o.snapBytes)).Decode(&snap); err != nil {
			return err
		}
		o.snap = &snap
		o.m.Restore(&snap)
		return nil
	})
	add("advance", o.in.BlockStep, func() error {
		id := o.tr.begin("ocean.step")
		o.m.Step(o.f)
		o.tr.end(id)
		return nil
	})
	add("save", fixed, func() error {
		snap := o.m.Snapshot()
		o.saved.Reset()
		return gob.NewEncoder(&o.saved).Encode(snap)
	})
	add("read", read, func() error {
		o.sst = append(o.sst[:0], o.m.SST()...)
		o.ocnT = copyLevels(o.ocnT, o.m.TField())
		o.ocnS = copyLevels(o.ocnS, o.m.SField())
		o.diag = o.m.Diagnostics()
		return nil
	})
	add("lifecycle", fixed, func() error {
		m2, err := ocean.NewOnGrid(o.cfg, o.kmt, o.grid)
		if err != nil {
			return err
		}
		m2.Restore(o.snap)
		return nil
	})
	return s
}

func (o *oceanRun) checkFields() (uint64, error) {
	err := firstErr(
		checkSST(o.sst, o.m.Mask()),
		checkBelow("max current", o.diag.MaxSpeed, maxSpeedMS),
	)
	h := hashFloats(0, o.sst)
	for k := range o.ocnT {
		if err == nil {
			err = firstErr(checkFinite("ocean T", o.ocnT[k]), checkFinite("ocean S", o.ocnS[k]))
		}
		h = hashFloats(h, o.ocnT[k])
		h = hashFloats(h, o.ocnS[k])
	}
	return h, err
}

// runOcean measures ocean_128.
func runOcean(in oceanInputs, b budget, traced bool) *result {
	res := newResult("ocean_128", traced)
	o := &oceanRun{in: in}

	setup := coldSetup(o.buildCold, &res.tally, nil)
	if o.m == nil {
		return res
	}
	res.check(safely(func() error {
		o.f = o.forcing()
		for i := 0; i < in.SpinSteps; i++ {
			o.m.Step(o.f)
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(o.m.Snapshot()); err != nil {
			return err
		}
		o.snapBytes = buf.Bytes()
		o.saved.Grow(2 * len(o.snapBytes))
		return nil
	}))
	if o.snapBytes == nil {
		return res
	}

	var end sameEnd
	hk := hooks{after: func(r int) {
		h, err := o.checkFields()
		res.check(err)
		end.check(&res.tally, r, h)
	}}
	if traced {
		o.traced(res, b, hk)
		return res
	}

	hk = hk.andAfter(func(int) {
		spare := &oceanRun{in: in} // dropped at once: only its timing is kept
		setup = coldSetup(spare.buildCold, &res.tally, setup)
	})
	s := replay(o.script(fixedReps, readReps), b, nil, &res.tally, hk)
	res.setupMetric(setup)
	days := float64(in.BlockStep) * o.cfg.DtTracer / sphere.SecondsPerDay
	res.set("sim_days_per_s", days/(float64(s.blockFloor())/nsPerS))
	res.set("checkpoint_kb", float64(o.saved.Len())/1000)
	res.latencyMetrics(s)
	res.set("lifecycle_ms", s.kindFloor("lifecycle")/nsPerMs)
	res.set("heap_inuse_mb", heapInuseMB(o))
	res.quality(s, "advance", "read", "save", "restore", "lifecycle")
	return res
}

// mcellsPerS is the computed ocean rate: wet cells (the KMT's active levels
// summed) times steps, in millions, per second of ocean.Step time.
func mcellsPerS(kmt []int, steps int, stepNs int64) float64 {
	cells := 0
	for _, k := range kmt {
		cells += k
	}
	return float64(cells*steps) / 1e6 / (float64(stepNs) / nsPerS)
}

// traced is the separate traced run: the block with a span around every
// ocean step, the tracer on in odd replays only.
func (o *oceanRun) traced(res *result, b budget, hk hooks) {
	tr := newTracer()
	root := tr.begin("run")
	o.tr = tr
	s := replay(o.script(fixedReps, readReps), b.traced(), tr, &res.tally, hk)
	o.tr = nil

	res.quality(s, "advance", "read", "save", "restore", "lifecycle")
	res.set("bench.trace_overhead", float64(s.pick(0, len(s.ops), oddReplays).blockFloor())/
		float64(s.pick(0, len(s.ops), evenReplays).blockFloor())-1)
	fl, calls := layerFloors(tr.spans, len(s.ops))
	step := fl["ocean.step"]
	res.set("ocean.step_ms", medianPositive(step)/nsPerMs)
	res.set("ocean.steps", float64(calls["ocean.step"]))
	res.set("ocean.share", float64(sumInt(step))/float64(s.pick(0, len(s.ops), oddReplays).kindFloorSum("advance")))
	res.set("ocean.mcells_per_s", mcellsPerS(o.kmt, calls["ocean.step"], sumInt(step)))
	res.set("data.ocean_kmt_ms", minOf(3, func() { data.Earth().OceanKMT(o.grid, o.cfg.NLev) })/nsPerMs)
	spanCost(res, tr, len(s.ops), s.blockFloor())
	tr.end(root)
	res.spans = tr.spans
}
