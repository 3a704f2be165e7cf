package main

import (
	"bytes"
	"fmt"
	"runtime"

	"foam/internal/atmos"
	"foam/internal/core"
	"foam/internal/coupler"
	"foam/internal/data"
	"foam/internal/ocean"
	"foam/internal/scenario"
	"foam/internal/spectral"
	"foam/internal/sphere"
)

// coupledRun is one core.Model workload in flight: coupled_r15 (the paper's
// configuration) or atmos_r21_slab (top rung over a slab ocean). Both run
// the serial executor through core.Model.Step on one thread.
type coupledRun struct {
	in  coupledInputs
	cfg core.Config
	tb  *core.Tables
	m   *core.Model
	tr  *tracer

	chkBytes []byte           // the warm state every replay restores
	chk      *core.Checkpoint // decoded by the restore op, reused by lifecycle
	saved    bytes.Buffer     // pre-grown target of the save op
	fields   coupledFields    // output of the read op
}

// coupledFields is what the read op copies out of the model: the fields a
// client plots, which are also the fields the correctness checks hash.
type coupledFields struct {
	sst, ps, tLow []float64
	ocnT, ocnS    [][]float64
	diag          core.Diagnostics
}

func copyLevels(dst, src [][]float64) [][]float64 {
	if dst == nil {
		dst = make([][]float64, len(src))
	}
	for k := range src {
		dst[k] = append(dst[k][:0], src[k]...)
	}
	return dst
}

// buildCold is one cold construction: scenario.Build -> core.BuildTables ->
// core.NewWithTables, the path `foam -scenario` takes.
func (c *coupledRun) buildCold() error {
	cfg, err := scenario.Build(c.in.Spec)
	if err != nil {
		return err
	}
	cfg.Workers = 1
	tb := core.BuildTables(cfg)
	m, err := core.NewWithTables(cfg, tb)
	if err != nil {
		return err
	}
	c.cfg, c.tb, c.m = m.Config(), tb, m
	return nil
}

// tickClass names the work of global tick t: the atmosphere recomputes
// radiation on some ticks and the ocean is called on the last tick of every
// coupling interval.
func (c *coupledRun) tickClass(t int) string {
	switch {
	case (t+1)%c.cfg.OceanEvery == 0:
		return "couple"
	case t%c.cfg.Atm.RadiationEvery == 0:
		return "radiation"
	}
	return "plain"
}

// fixedReps and readReps are how often a block repeats each of its single
// ops (restore, save, lifecycle; the sub-millisecond read) back to back on
// unchanged state. The repeats are identical work, so each adds a floor to
// the kind's median; one floor per block proved too few on this host (see
// README.md, "Measured spreads").
const (
	fixedReps = 5
	readReps  = 8
)

// script is the block: restore the warm checkpoint, step BlockTicks ticks,
// save, read the fields out, and fork a fresh model from the shared tables.
// The traced run steps one coupling interval and repeats nothing (fixed =
// read = 1), so that its longer loop still gets enough replays.
func (c *coupledRun) script(ticks, fixed, read int) []op {
	var s []op
	add := func(kind, class string, group, reps int, run func() error) {
		for i := 0; i < reps; i++ {
			s = append(s, op{opMeta{kind: kind, class: class, group: group}, run})
		}
	}
	add("restore", "", -1, fixed, func() error {
		id := c.tr.begin("core.checkpoint_decode")
		chk, err := core.LoadCheckpoint(bytes.NewReader(c.chkBytes))
		c.tr.end(id)
		if err != nil {
			return err
		}
		c.chk = chk
		id = c.tr.begin("core.restore")
		err = c.m.Restore(chk)
		c.tr.end(id)
		return err
	})
	for i := 0; i < ticks; i++ {
		add("advance", c.tickClass(c.in.WarmTicks+i), i/c.cfg.OceanEvery, 1, func() error {
			c.m.Step()
			return nil
		})
	}
	add("save", "", -1, fixed, func() error {
		id := c.tr.begin("core.checkpoint_capture")
		chk := c.m.Checkpoint()
		c.tr.end(id)
		id = c.tr.begin("core.checkpoint_encode")
		c.saved.Reset()
		err := chk.Save(&c.saved)
		c.tr.end(id)
		return err
	})
	add("read", "", -1, read, func() error {
		f := &c.fields
		f.sst = append(f.sst[:0], c.m.SST()...)
		f.ps = c.m.Atm.GridPs()
		f.tLow = c.m.Atm.GridTemperature(c.cfg.Atm.NLev - 1)
		f.ocnT = copyLevels(f.ocnT, c.m.Ocn.TField())
		f.ocnS = copyLevels(f.ocnS, c.m.Ocn.SField())
		f.diag = c.m.Diagnostics()
		return nil
	})
	add("lifecycle", "", -1, fixed, func() error {
		id := c.tr.begin("core.new_with_tables")
		m2, err := core.NewWithTables(c.cfg, c.tb)
		c.tr.end(id)
		if err != nil {
			return err
		}
		id = c.tr.begin("core.restore")
		err = m2.Restore(c.chk)
		c.tr.end(id)
		m2.Close()
		return err
	})
	return s
}

// checkFields validates what the read op copied out and returns its hash.
func (c *coupledRun) checkFields() (uint64, error) {
	f := &c.fields
	err := firstErr(
		checkSST(f.sst, c.m.Ocn.Mask()),
		checkFinite("Ps", f.ps),
		checkFinite("T", f.tLow),
		checkBelow("max wind", f.diag.Atm.MaxWind, maxWindMS),
		checkBelow("max current", f.diag.Ocn.MaxSpeed, maxSpeedMS),
	)
	h := hashFloats(0, f.sst)
	h = hashFloats(h, f.ps)
	h = hashFloats(h, f.tLow)
	for k := range f.ocnT {
		if err == nil {
			err = firstErr(checkFinite("ocean T", f.ocnT[k]), checkFinite("ocean S", f.ocnS[k]))
		}
		h = hashFloats(h, f.ocnT[k])
		h = hashFloats(h, f.ocnS[k])
	}
	return h, err
}

// runCoupled measures one core.Model workload.
func runCoupled(name string, in coupledInputs, b budget, traced bool) *result {
	res := newResult(name, traced)
	c := &coupledRun{in: in}

	setup := coldSetup(c.buildCold, &res.tally, nil)
	if c.m == nil {
		return res
	}
	// Warm up to the state every replay starts from.
	res.check(safely(func() error {
		for i := 0; i < in.WarmTicks; i++ {
			c.m.Step()
		}
		var buf bytes.Buffer
		if err := c.m.Checkpoint().Save(&buf); err != nil {
			return err
		}
		c.chkBytes = buf.Bytes()
		c.saved.Grow(2 * len(c.chkBytes))
		return nil
	}))
	if c.chkBytes == nil {
		return res
	}

	var end sameEnd
	hk := hooks{after: func(r int) {
		h, err := c.checkFields()
		res.check(err)
		end.check(&res.tally, r, h)
	}}
	if traced {
		c.traced(res, b, hk)
		return res
	}

	// One more cold construction after every replay spreads the set-up
	// samples over the whole run instead of its first second.
	hk = hk.andAfter(func(int) {
		spare := &coupledRun{in: in} // dropped at once: only its timing is kept
		setup = coldSetup(spare.buildCold, &res.tally, setup)
	})
	s := replay(c.script(c.in.BlockTicks, fixedReps, readReps), b, nil, &res.tally, hk)
	res.setupMetric(setup)
	res.set("sim_days_per_s", c.simDays()/(float64(s.blockFloor())/nsPerS))
	res.set("checkpoint_kb", float64(c.saved.Len())/1000)
	res.latencyMetrics(s)
	res.set("lifecycle_ms", s.kindFloor("lifecycle")/nsPerMs)
	res.set("heap_inuse_mb", heapInuseMB(c))
	res.quality(s, "advance", "read", "save", "restore", "lifecycle")
	return res
}

func (c *coupledRun) simDays() float64 {
	return float64(c.in.BlockTicks) * c.cfg.Atm.Dt / sphere.SecondsPerDay
}

// heapInuseMB is HeapInuse after a collection with live (the workload's
// models and buffers) still reachable.
func heapInuseMB(live any) float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(live)
	return float64(ms.HeapInuse) / 1e6
}

// handDriven is the coupled model re-driven from bench/ over the layers'
// public entry points, in the lag-0 op order sched.Compile emits, with a
// timing Boundary between the atmosphere and the coupler. It shares the
// core.Model's tables and must end every block bit-identical to it.
type handDriven struct {
	cfg core.Config
	at  *atmos.Model
	oc  *ocean.Model
	cp  *coupler.Coupler
	tr  *tracer
}

// timedBoundary is the coupler as the atmosphere's surface, with a span
// around every exchange.
type timedBoundary struct {
	cp *coupler.Coupler
	tr *tracer
}

func (b *timedBoundary) Exchange(in *atmos.LowestLevel, dt float64) *atmos.SurfaceExchange {
	id := b.tr.begin("coupler.exchange")
	out := b.cp.Exchange(in, dt)
	b.tr.end(id)
	return out
}

// newHandDriven assembles the components the way core.NewWithTables does.
func newHandDriven(cfg core.Config, tb *core.Tables, tr *tracer) (*handDriven, error) {
	oc, err := ocean.NewOnGrid(cfg.Ocn, tb.KMT, tb.OcnGrid)
	if err != nil {
		return nil, err
	}
	cp := coupler.NewShared(tb.AtmGrid, oc.Grid(), oc.Mask(), coupler.Shared{
		Overlap: tb.Overlap, Rivers: tb.Rivers, Land: tb.AtmLand, Soil: tb.AtmSoil,
	})
	at, err := atmos.NewShared(cfg.Atm, &timedBoundary{cp, tr}, atmos.Shared{Grid: tb.AtmGrid, Transform: tb.Spectral})
	if err != nil {
		return nil, err
	}
	if !cfg.Flat {
		at.SetOrography(tb.Orography)
	}
	cp.AbsorbOcean(oc)
	return &handDriven{cfg: cfg, at: at, oc: oc, cp: cp, tr: tr}, nil
}

// restore installs a core.Checkpoint through the components' public state,
// in the order core.Model.Restore uses.
func (h *handDriven) restore(c *core.Checkpoint) {
	h.oc.Restore(c.Ocn)
	h.at.Restore(c.Atm)
	copy(h.cp.Land.T, c.LandT)
	copy(h.cp.Land.Water, c.LandWater)
	copy(h.cp.Land.Snow, c.LandSnow)
	copy(h.cp.River.Volume, c.RiverVol)
	copy(h.cp.Ice.Thick, c.IceThick)
	copy(h.cp.Ice.TSurf, c.IceTSurf)
	h.cp.RestoreAccum(c.AccTauX, c.AccTauY, c.AccHeat, c.AccFW, c.AccRunoff, c.AccSteps)
	h.cp.SetSST(c.CplSST)
	h.cp.SetIceFormation(c.CplIceForm)
}

// tick runs global tick t: the atmosphere step (surface exchange inside),
// and on the last tick of a coupling interval the interval closure, the
// ocean step and the surface-state import.
func (h *handDriven) tick(t int) {
	id := h.tr.begin("atmos.step")
	h.at.Step()
	h.tr.end(id)
	if (t+1)%h.cfg.OceanEvery != 0 {
		return
	}
	dt := h.cfg.Ocn.DtTracer
	id = h.tr.begin("coupler.drain")
	f := h.cp.DrainOceanForcing(dt)
	h.tr.end(id)
	id = h.tr.begin("ocean.step")
	h.oc.Step(f)
	h.tr.end(id)
	id = h.tr.begin("coupler.import")
	h.cp.SetSST(h.oc.SST())
	h.cp.SetIceFormation(h.oc.IceFormation())
	u, v := h.oc.SurfaceCurrents()
	h.cp.AdvectIce(u, v, dt)
	h.tr.end(id)
}

// handScript is the hand-driven block: restore through the components'
// public state, then the same ticks as the core.Model block, traced in
// every replay.
func (c *coupledRun) handScript(h *handDriven, ticks int) []op {
	s := []op{{opMeta{kind: "hand_restore", group: -1, always: true}, func() error {
		chk, err := core.LoadCheckpoint(bytes.NewReader(c.chkBytes))
		if err != nil {
			return err
		}
		h.restore(chk)
		return nil
	}}}
	for i := 0; i < ticks; i++ {
		t := c.in.WarmTicks + i
		s = append(s, op{opMeta{kind: "hand_advance", class: c.tickClass(t), group: -1, always: true}, func() error {
			h.tick(t)
			return nil
		}})
	}
	return s
}

// surfaceHash identifies a block-end state by its SST and surface pressure.
func surfaceHash(sst, ps []float64) uint64 { return hashFloats(hashFloats(0, sst), ps) }

// traced is the separate traced run. One replay loop times the end-to-end
// block (tracer on in odd replays only, with spans around the calls into
// core) followed by the hand-driven component loop (spans around every layer
// call, always on); then come the stand-alone timings.
func (c *coupledRun) traced(res *result, b budget, hk hooks) {
	tr := newTracer()
	root := tr.begin("run")
	defer func() {
		tr.end(root)
		res.spans = tr.spans
	}()
	c.tr = tr
	hand, err := newHandDriven(c.cfg, c.tb, tr)
	res.check(err)
	if err != nil {
		return
	}
	ticks := c.cfg.OceanEvery
	block := c.script(ticks, 1, 1)
	script := append(block, c.handScript(hand, ticks)...)
	s := replay(script, b.traced(), tr, &res.tally, hk.andAfter(func(r int) {
		var err error
		if got, want := surfaceHash(hand.oc.SST(), hand.at.GridPs()), surfaceHash(c.fields.sst, c.fields.ps); got != want {
			err = fmt.Errorf("replay %d: hand-driven loop ends in surface state %016x, core.Model in %016x", r, got, want)
		}
		res.check(err)
	}))
	fl, calls := layerFloors(tr.spans, len(s.ops))
	c.tr = nil

	all := s.pick(0, len(block), allReplays)
	res.quality(all, "advance", "read", "save", "restore", "lifecycle")
	res.set("bench.trace_overhead", float64(s.pick(0, len(block), oddReplays).blockFloor())/
		float64(s.pick(0, len(block), evenReplays).blockFloor())-1)

	// sched/exec: Model.Step by tick class (no span is ever inside a tick of
	// the core.Model block, so every replay counts), and what the interpreter
	// adds over the sum of the component calls it makes.
	res.set("exec.tick_plain_ms", all.opFloor("advance", "plain")/nsPerMs)
	res.set("exec.tick_radiation_ms", all.opFloor("advance", "radiation")/nsPerMs)
	res.set("exec.tick_couple_ms", all.opFloor("advance", "couple")/nsPerMs)
	stepping := float64(all.kindFloorSum("advance"))
	components := c.handLayers(res, fl, calls, s.ops)
	res.set("exec.overhead_share", (stepping-components)/stepping)
	res.notef("stepping floor: core.Model %.4g ms, hand-driven ticks %.4g ms, sum of their component spans %.4g ms",
		stepping/nsPerMs, float64(s.kindFloorSum("hand_advance"))/nsPerMs, components/nsPerMs)

	// Checkpoint path and member construction, from the spans inside the
	// restore, save and lifecycle ops.
	res.set("core.checkpoint_capture_ms", medianPositive(fl["core.checkpoint_capture"])/nsPerMs)
	res.set("core.checkpoint_encode_ms", medianPositive(fl["core.checkpoint_encode"])/nsPerMs)
	res.set("core.checkpoint_decode_ms", medianPositive(fl["core.checkpoint_decode"])/nsPerMs)
	res.set("core.restore_ms", medianPositive(fl["core.restore"])/nsPerMs)
	res.set("core.new_with_tables_ms", medianPositive(fl["core.new_with_tables"])/nsPerMs)

	res.check(safely(func() error { return c.allocsPerBlock(res) }))
	spanCost(res, tr, len(block), all.blockFloor())
	c.setupParts(res)
	spectralKernels(res, c.tb, c.cfg.Atm.NLev)
	if c.in.Spec.Name == "paper-foam" {
		res.check(safely(func() error { return c.poolSpeedup(res, b, stepping) }))
	}
}

// handLayers fills the atmosphere, coupler and ocean ledger from the layer
// floors of the hand-driven ticks and returns the sum of the component
// floors in ns. Shares are of that sum; self time = span - children.
func (c *coupledRun) handLayers(res *result, fl map[string][]int64, calls map[string]int, ops []opMeta) float64 {
	atm, exch := fl["atmos.step"], fl["coupler.exchange"]
	drain, ocn, imp := fl["coupler.drain"], fl["ocean.step"], fl["coupler.import"]
	components := float64(sumInt(atm) + sumInt(drain) + sumInt(ocn) + sumInt(imp))
	atmSelf := float64(sumInt(atm) - sumInt(exch))
	res.set("atmos.step_ms", medianWhere(atm, ops, "plain")/nsPerMs)
	res.set("atmos.radiation_step_ms", medianWhere(atm, ops, "radiation")/nsPerMs)
	res.set("atmos.self_share", atmSelf/components)
	res.set("atmos.steps", float64(calls["atmos.step"]))
	points := float64(c.cfg.Atm.NLat * c.cfg.Atm.NLon * c.cfg.Atm.NLev * calls["atmos.step"])
	res.set("atmos.mpoints_per_s", points/1e6/(atmSelf/nsPerS))
	res.set("coupler.exchange_ms", medianPositive(exch)/nsPerMs)
	res.set("coupler.exchange_calls", float64(calls["coupler.exchange"]))
	res.set("coupler.drain_ms", medianPositive(drain)/nsPerMs)
	res.set("coupler.import_ms", medianPositive(imp)/nsPerMs)
	res.set("coupler.share", float64(sumInt(exch)+sumInt(drain)+sumInt(imp))/components)
	res.set("ocean.step_ms", medianPositive(ocn)/nsPerMs)
	res.set("ocean.steps", float64(calls["ocean.step"]))
	res.set("ocean.share", float64(sumInt(ocn))/components)
	res.set("ocean.mcells_per_s", mcellsPerS(c.tb.KMT, calls["ocean.step"], sumInt(ocn)))
	return components
}

// allocsPerBlock counts heap allocations over the block's ticks on the
// core.Model (the stepping path is meant to allocate nothing).
func (c *coupledRun) allocsPerBlock(res *result) error {
	chk, err := core.LoadCheckpoint(bytes.NewReader(c.chkBytes))
	if err != nil {
		return err
	}
	if err := c.m.Restore(chk); err != nil {
		return err
	}
	var a, z runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < c.in.BlockTicks; i++ {
		c.m.Step()
	}
	runtime.ReadMemStats(&z)
	res.set("exec.allocs_per_block", float64(z.Mallocs-a.Mallocs))
	return nil
}

// setupParts times the constructions behind setup_s stand-alone.
func (c *coupledRun) setupParts(res *result) {
	const n = 3
	w, _ := data.WorldByName(c.cfg.World)
	ms := func(fn func()) float64 { return minOf(n, fn) / nsPerMs }
	res.set("scenario.build_ms", ms(func() { _, _ = scenario.Build(c.in.Spec) }))
	res.set("core.build_tables_ms", ms(func() { core.BuildTables(c.cfg) }))
	res.set("data.ocean_kmt_ms", ms(func() { w.OceanKMT(c.tb.OcnGrid, c.cfg.Ocn.NLev) }))
	res.set("data.rivers_ms", ms(func() { w.BuildRivers(c.tb.AtmGrid) }))
	res.set("coupler.build_overlap_ms", ms(func() { coupler.BuildOverlap(c.tb.AtmGrid, c.tb.OcnGrid) }))
	res.set("spectral.new_transform_ms", ms(func() {
		spectral.NewTransform(c.cfg.Atm.Trunc, c.cfg.Atm.NLat, c.cfg.Atm.NLon)
	}))
}

// poolSpeedup replays the block's ticks on a two-worker pooled model with
// two OS threads and compares with the serial floor. Informational: on a
// shared host the second core is often not there, and the result says so.
func (c *coupledRun) poolSpeedup(res *result, b budget, serialNs float64) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	cfg := c.cfg
	cfg.Workers = 2
	m, err := core.NewWithTables(cfg, c.tb)
	if err != nil {
		return err
	}
	defer m.Close()
	script := []op{{opMeta{kind: "restore", group: -1}, func() error { return m.Restore(c.chk) }}}
	for i := 0; i < c.cfg.OceanEvery; i++ {
		script = append(script, op{opMeta{kind: "advance", group: -1}, func() error { m.Step(); return nil }})
	}
	s := replay(script, budget{seconds: 0.15 * b.seconds, minR: 2, maxR: b.maxR}, nil, &res.tally, hooks{})
	res.set("pool.speedup_w2", serialNs/float64(s.kindFloorSum("advance")))
	return nil
}
