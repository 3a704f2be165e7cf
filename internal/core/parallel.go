package core

import (
	"fmt"

	"foam/internal/mp"
	"foam/internal/sched"
)

// ParallelSpec describes the simulated machine partition for a traced run:
// the paper's production layout is 16 atmosphere ranks + 1 ocean rank
// (17 nodes) or 32 + 2 (34 nodes), with the coupler co-resident on the
// atmosphere ranks.
type ParallelSpec struct {
	AtmRanks int
	OcnRanks int
	Link     mp.LinkParams
}

// TraceResult is the outcome of a trace-driven parallel run.
type TraceResult struct {
	Machine     *mp.Machine // per-rank virtual timelines (atm ranks first)
	SimSeconds  float64     // simulated model time covered
	MachineTime float64     // virtual wall time on the simulated machine
	Speedup     float64     // SimSeconds / MachineTime
	SerialTime  float64     // total single-rank busy time (for efficiency)
	Efficiency  float64     // SerialTime / (MachineTime * ranks)
}

// atmPartition chooses the 2-D (latitude-pair x longitude) decomposition
// for p atmosphere ranks, mirroring PCCM2's constraints: latitude pairs are
// the primary axis (nlat/2 of them) and the longitude axis is limited, so
// scaling collapses when p exceeds what the pairs can feed — the paper's
// "constraints on the domain decomposition ... in low resolution
// applications" that spoiled its 68-node run.
func atmPartition(p, nlat int) (plat, plon int) {
	pairs := nlat / 2
	plon = 1
	plat = p
	for plat > pairs {
		plon++
		if p%plon != 0 {
			continue
		}
		plat = p / plon
	}
	return plat, plon
}

// replay is the simulated machine run of the coupled program. Component
// ci's group occupies the size[ci] contiguous ranks from lead[ci]; the first
// of them — the lead — speaks for the component in coupling transfers.
// Ticks are replayed one at a time, in program order, each group charged by
// the paper's cost structure: row-parallel dynamics and physics divided
// over the 2-D latitude-pair x longitude partition, a replicated
// semi-implicit solve, two transpose all-to-alls per step for the
// distributed spectral transform (Foster-Worley), the coupler split across
// the atmosphere ranks, and the ocean's row-block share plus per-subcycle
// halo exchange.
type replay struct {
	m    *Model
	mach *mp.Machine
	lead [2]int
	size [2]int

	plon      int
	rows      [][]int // physics rows owned by each latitude block
	specChunk int     // per-rank transpose chunk, doubles
	haloLen   int
	subcycles int
}

func newReplay(m *Model, spec ParallelSpec) *replay {
	nlat := m.cfg.Atm.NLat
	plat, plon := atmPartition(spec.AtmRanks, nlat)
	r := &replay{
		m:         m,
		mach:      mp.NewMachine(spec.AtmRanks+spec.OcnRanks, spec.Link),
		lead:      [2]int{0, spec.AtmRanks},
		size:      [2]int{spec.AtmRanks, spec.OcnRanks},
		plon:      plon,
		haloLen:   2 * m.cfg.Ocn.NLon * (2*m.cfg.Ocn.NLev + 3),
		subcycles: m.cfg.Ocn.Subcycles(),
	}
	// Latitude pairs dealt to plat blocks, each block taking its pair and
	// the mirror row — PCCM2's pairing of northern and southern latitudes.
	pairs := nlat / 2
	r.rows = make([][]int, plat)
	for p := 0; p < pairs; p++ {
		b := p * plat / pairs
		r.rows[b] = append(r.rows[b], p, nlat-1-p)
	}
	// Distributed spectral transform: each rank's share of the spectral
	// arrays (vort, div, T per level + lnps), exchanged twice per step.
	specDoubles := m.cfg.Atm.Trunc.Count() * 2 * (3*m.cfg.Atm.NLev + 1)
	r.specChunk = specDoubles/(spec.AtmRanks*spec.AtmRanks) + 1
	return r
}

// measured returns component ci's costs for the tick the model just ran, as
// the flat vector its group charges from: [perRow, semiImplicit, boundary,
// physRows...] for the atmosphere, [stepSeconds] for the ocean.
func (r *replay) measured(ci int) []float64 {
	if ci == 1 {
		return []float64{r.m.Ocn.LastStepSeconds()}
	}
	c := r.m.Atm.LastCost()
	perRow := (c.DynRows + c.Moisture) / float64(r.m.cfg.Atm.NLat)
	return append([]float64{perRow, c.SemiImplicit, c.Boundary}, c.PhysRows...)
}

// goAhead delivers a message of n float64s from component ci's lead,
// stamped with the lead's clock, to every other member of its group: the
// word that releases the members into a tick (carrying its cost vector) or,
// at the end of the run, out of their loop.
func (r *replay) goAhead(ci, n int) {
	stamp := r.mach.Clock(r.lead[ci])
	for w := 1; w < r.size[ci]; w++ {
		r.mach.Deliver(r.lead[ci]+w, stamp, n)
	}
}

// charge gives every rank of component ci's group its share of one tick
// and runs the group's communication pattern.
func (r *replay) charge(ci int, costs []float64) {
	r.goAhead(ci, 1+len(costs))
	lead, n := r.lead[ci], r.size[ci]
	if ci == 1 {
		// Row-block share of the ocean step plus halo exchange with
		// neighbouring ocean ranks (two rows each way per subcycle).
		for w := 0; w < n; w++ {
			r.mach.Charge(lead+w, "ocean", costs[0]/float64(n))
		}
		for s := 0; s < r.subcycles; s++ {
			r.mach.Halo(lead, n, r.haloLen)
		}
		return
	}
	perRow, si, boundary, phys := costs[0], costs[1], costs[2], costs[3:]
	for w := 0; w < n; w++ {
		// Row-parallel dynamics + physics, replicated SI solve.
		var rows []int
		if latBlock := w / r.plon; latBlock < len(r.rows) {
			rows = r.rows[latBlock]
		}
		rowWork := 0.0
		for _, j := range rows {
			rowWork += phys[j]
		}
		rowWork /= float64(r.plon)
		uniform := perRow * float64(len(rows)) / float64(r.plon)
		r.mach.Charge(lead+w, "atmosphere", uniform+si+rowWork)
	}
	// Two transposes per step (forward and inverse spectral transform).
	r.mach.Alltoall(lead, n, r.specChunk)
	r.mach.Alltoall(lead, n, r.specChunk)
	// Coupler work, split across the atmosphere ranks.
	for w := 0; w < n; w++ {
		r.mach.Charge(lead+w, "coupler", boundary/float64(n))
	}
}

// tick replays program tick t on the machine; costs(ci) returns component
// ci's cost vector for the tick. A group is charged right after its
// component's last step or coupling op of the tick, and every transferred
// field is one lead-to-lead message stamped with the sender's clock at that
// point of the program. Walking the ops in program order is exact, not an
// approximation of a concurrent run: each rank's clock is a function of
// its own op order and the stamps it receives, and program order performs
// every send before its receive.
func (r *replay) tick(t int, costs func(ci int) []float64) {
	ops := r.m.prog.TickOps(t)
	last := [2]int{-1, -1}
	for i, op := range ops {
		if op.Kind != sched.OpXfer {
			last[op.Comp] = i
		}
	}
	for i, op := range ops {
		if op.Kind == sched.OpXfer {
			stamp := r.mach.Clock(r.lead[op.Src])
			for _, f := range op.Fields {
				r.mach.Deliver(r.lead[op.Dst], stamp, r.m.comps[op.Src].FieldLen(f))
			}
		} else if i == last[op.Comp] {
			r.charge(op.Comp, costs(op.Comp))
		}
	}
}

// shutdown ends the run: each lead releases its members with a 3-double
// message, so a member's final clock includes the wait for it.
func (r *replay) shutdown() {
	r.goAhead(0, 3)
	r.goAhead(1, 3)
}

// RunTraced runs the coupled model for the given number of days and replays
// it on a simulated message-passing machine with each component's group on
// its own ranks. The real model steps serially, one tick at a time, with
// cost tracing on (so the recorded wall-clock costs are clean); after each
// tick every rank is charged its modeled share of the measured costs and
// the machine delivers the tick's messages (correct sizes) — so waiting,
// load imbalance and bandwidth all shape the virtual timelines, the
// quantities behind the paper's Figure 2 and its Section 5 throughput
// numbers.
func RunTraced(cfg Config, days float64, spec ParallelSpec) (*TraceResult, *Model, error) {
	if spec.AtmRanks < 1 || spec.OcnRanks < 1 {
		return nil, nil, fmt.Errorf("core: need at least one rank per component")
	}
	cfg.Workers = 1
	m, err := New(cfg)
	if err != nil {
		return nil, nil, err
	}
	m.Atm.EnableCostTrace()

	rp := newReplay(m, spec)
	steps := int(days * 86400 / cfg.Atm.Dt)
	for t := 0; t < steps; t++ {
		m.Step()
		rp.tick(t, rp.measured)
	}
	rp.shutdown()

	res := &TraceResult{Machine: rp.mach}
	res.MachineTime = rp.mach.MaxClock()
	res.SerialTime = rp.mach.TotalBusy()
	res.Efficiency = res.SerialTime / (res.MachineTime * float64(rp.mach.Ranks()))
	res.SimSeconds = float64(steps) * cfg.Atm.Dt
	res.Speedup = res.SimSeconds / res.MachineTime
	return res, m, nil
}
