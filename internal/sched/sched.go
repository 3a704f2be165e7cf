// Package sched defines the component contract and the multi-rate coupling
// schedule of the coupled model as data. The paper's schedule — a 30-minute
// atmosphere step, radiation twice per simulated day (owned by the
// atmosphere's own step), and the ocean called four times per simulated day
// with fluxes averaged over the interval — used to live as nested loop
// bodies inside core.Model.Step. Here it is compiled once into a periodic
// Program: a list of ticks, each a fixed sequence of component steps,
// coupling closures, and field transfers. The executor (internal/exec)
// interprets the Program serially or on a shared-memory pool; because the
// Program fixes the order of every state mutation and every transfer, the
// result is bit-identical either way by construction.
package sched

import (
	"fmt"

	"foam/internal/pool"
)

// Field names one coupling field exchanged between components. The set is
// closed and ordered: transfers always move fields in the importer's
// declared order, which is part of the bit-identity contract.
type Field string

// The coupling fields of the FOAM pair. The first four flow atmosphere
// (coupler) -> ocean as the interval-averaged forcing; the last four flow
// ocean -> atmosphere (coupler) as the new surface state.
const (
	FieldTauX       Field = "tauX"       // zonal wind stress, N/m^2, ocean grid
	FieldTauY       Field = "tauY"       // meridional wind stress, N/m^2, ocean grid
	FieldHeat       Field = "heat"       // net surface heat flux, W/m^2, ocean grid
	FieldFreshWater Field = "freshWater" // fresh water flux incl. rivers, kg/m^2/s
	FieldSST        Field = "sst"        // sea surface temperature, deg C
	FieldIceForm    Field = "iceForm"    // freezing flux from the ocean clamp, kg/m^2/s
	FieldCurrentU   Field = "currentU"   // zonal surface current, m/s
	FieldCurrentV   Field = "currentV"   // meridional surface current, m/s
)

// Component is the contract a coupled-model component implements: it can
// advance itself by one of its own steps, declare which coupling fields it
// imports and exports, move those fields through caller-owned buffers, and
// close a coupling interval (e.g. average and reset flux accumulators).
// Implementations must be deterministic: the same call sequence always
// produces the same state, and Step/Couple/Import are the only mutators.
type Component interface {
	// Name identifies the component in schedules and traces.
	Name() string
	// Step advances the component by one of its own steps.
	Step()
	// Couple closes one coupling interval of length dt seconds, preparing
	// the component's exports (averaging accumulators, routing rivers).
	Couple(dt float64)
	// Imports lists the fields the component consumes, in the exact order
	// they must be imported.
	Imports() []Field
	// Exports lists the fields the component produces: exactly the other
	// component's imports, in any order (Compile rejects any mismatch).
	Exports() []Field
	// FieldLen returns the length of the named field's flat array.
	FieldLen(f Field) int
	// ExportInto copies the named export into dst (len FieldLen(f)).
	ExportInto(dst []float64, f Field)
	// Import installs the named field from src. Imports may have side
	// effects (e.g. importing the surface currents advects the sea ice),
	// so executors must call them in Imports() order.
	Import(f Field, src []float64)
}

// PoolAware is the optional face of a Component whose hot loops can run on
// a worker pool. The executor attaches its pool through it; SetPool(nil)
// restores serial.
type PoolAware interface {
	SetPool(p *pool.Pool)
}

// Snapshotter is the optional checkpoint face of a Component: Snapshot
// returns an opaque, self-contained copy of the component's prognostic
// state (including any mid-interval accumulators) and RestoreSnapshot
// installs one onto a freshly built component of the same configuration.
type Snapshotter interface {
	Snapshot() any
	RestoreSnapshot(s any) error
}

// Schedule is the paper's multi-rate coupling cadence as data.
type Schedule struct {
	// BaseDt is the fast (atmosphere) step in seconds; one tick of the
	// compiled Program advances the coupled model by BaseDt.
	BaseDt float64
	// CoupleEvery is the number of base steps per coupling interval — the
	// slow (ocean) component steps once per interval (12 at the paper's
	// 30-minute step and 6-hour ocean call).
	CoupleEvery int
	// Lag selects the coupling style. 0 exchanges synchronously at the
	// coupling tick (fast component waits for the slow step — the original
	// serial semantics). 1 is the paper's lagged coupling: the fast
	// component imports the surface state the slow component produced in
	// the *previous* interval, so on a message-passing machine the slow
	// step overlaps the next interval's fast steps (Section 4, Figure 2).
	Lag int
}

// OpKind enumerates program operations.
type OpKind int

const (
	// OpStep advances component Comp by one of its own steps.
	OpStep OpKind = iota
	// OpCouple calls component Comp's Couple with the coupling interval.
	OpCouple
	// OpXfer moves Fields from component Src to component Dst, in order.
	OpXfer
)

// Op is one operation of a compiled program tick.
type Op struct {
	Kind     OpKind
	Comp     int // component index for OpStep / OpCouple
	Src, Dst int // component indices for OpXfer
	Fields   []Field
}

// Program is a compiled schedule: a periodic sequence of ticks, each a
// fixed op list. The executor runs ticks in order; the op order within a
// tick is the bit-identity contract.
type Program struct {
	BaseDt   float64
	CoupleDt float64
	// Period is the tick count of one full schedule cycle (CoupleEvery).
	Period int
	// Ticks[t] lists the ops of tick t of the cycle.
	Ticks [][]Op
}

// TickOps returns the ops of global tick t (the program is periodic).
func (p *Program) TickOps(t int) []Op { return p.Ticks[t%p.Period] }

// transfer returns the fields to move src -> dst: dst's imports, in dst's
// declared order. The pair must be wired exactly — dst imports every field
// src exports, each listed once on either side — so that no field is
// silently dropped or served twice.
func transfer(src, dst Component) ([]Field, error) {
	const exported, imported = 1, 2
	state := map[Field]int{}
	for _, f := range src.Exports() {
		if state[f] != 0 {
			return nil, fmt.Errorf("sched: %s exports %q twice", src.Name(), f)
		}
		state[f] = exported
	}
	for _, f := range dst.Imports() {
		switch state[f] {
		case 0:
			return nil, fmt.Errorf("sched: %s imports %q, which %s does not export", dst.Name(), f, src.Name())
		case imported:
			return nil, fmt.Errorf("sched: %s imports %q twice", dst.Name(), f)
		}
		state[f] = imported
	}
	for _, f := range src.Exports() {
		if state[f] == exported {
			return nil, fmt.Errorf("sched: %s exports %q, which %s does not import", src.Name(), f, dst.Name())
		}
	}
	return dst.Imports(), nil
}

// Compile lowers the schedule for a fast/slow component pair — comps[0]
// steps every tick, comps[1] once per coupling interval — into a periodic
// Program. A pair whose imports and exports do not match exactly is an
// error naming the component and the field.
//
// The op order at the coupling tick (the last tick of each cycle) encodes
// the coupling style. Lag 0 reproduces the original serial sequence
// exactly: fast step, close the interval, send the averaged forcing, slow
// step, return the new surface state. Lag 1 moves the surface transfer
// ahead of the interval closure, so the surface state the fast component
// imports is the one the slow component produced an interval earlier — at
// the first coupling tick, its initial state — and the slow step itself
// becomes the last op of the tick, free to overlap with the next
// interval's fast steps on a machine that gives each component its own
// processors (core.RunTraced replays the program on a simulated one).
func (s Schedule) Compile(comps []Component) (*Program, error) {
	if len(comps) != 2 {
		return nil, fmt.Errorf("sched: Compile wants a fast/slow component pair, got %d components", len(comps))
	}
	if s.BaseDt <= 0 {
		return nil, fmt.Errorf("sched: BaseDt must be positive")
	}
	if s.CoupleEvery < 1 {
		return nil, fmt.Errorf("sched: CoupleEvery must be >= 1")
	}
	if s.Lag < 0 || s.Lag > 1 {
		return nil, fmt.Errorf("sched: Lag must be 0 or 1, got %d", s.Lag)
	}
	fast, slow := comps[0], comps[1]
	forcing, err := transfer(fast, slow)
	if err != nil {
		return nil, err
	}
	surface, err := transfer(slow, fast)
	if err != nil {
		return nil, err
	}

	p := &Program{
		BaseDt:   s.BaseDt,
		CoupleDt: float64(s.CoupleEvery) * s.BaseDt,
		Period:   s.CoupleEvery,
	}
	p.Ticks = make([][]Op, p.Period)
	for t := 0; t < p.Period; t++ {
		ops := []Op{{Kind: OpStep, Comp: 0}}
		if t == p.Period-1 {
			couple := []Op{
				{Kind: OpCouple, Comp: 0},
				{Kind: OpXfer, Src: 0, Dst: 1, Fields: forcing},
				{Kind: OpStep, Comp: 1},
			}
			if s.Lag == 0 {
				ops = append(ops, couple...)
				ops = append(ops, Op{Kind: OpXfer, Src: 1, Dst: 0, Fields: surface})
			} else {
				ops = append(ops, Op{Kind: OpXfer, Src: 1, Dst: 0, Fields: surface})
				ops = append(ops, couple...)
			}
		}
		p.Ticks[t] = ops
	}
	return p, nil
}
