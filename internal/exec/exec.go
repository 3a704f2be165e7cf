// Package exec runs a compiled sched.Program over a set of components.
// There is one executor: it interprets the program op-by-op on the calling
// goroutine, and with more than one worker it attaches a deterministic
// shared-memory pool to every PoolAware component, so each op runs its
// internal phases across the pool while the op order — and therefore the
// numerics — stay exactly serial. The executor equivalence matrix in
// internal/core pins serial and pooled runs bit-identical.
package exec

import (
	"foam/internal/pool"
	"foam/internal/sched"
)

// planOp is one program op with its transfer buffers resolved, so the
// steady-state interpreter loop allocates nothing.
type planOp struct {
	sched.Op
	bufs [][]float64 // one per transferred field, len FieldLen
}

// Executor advances a compiled program over its components. It is not safe
// for concurrent use; one goroutine drives Steps. It may, however, migrate
// between goroutines across calls: a caller that establishes a
// happens-before edge between consecutive Steps calls (the ensemble
// scheduler hands members to pool workers under a mutex) gets the same
// trajectory as a single driving goroutine, because the executor keeps no
// goroutine-affine state.
type Executor struct {
	prog  *sched.Program
	comps []sched.Component
	plan  [][]planOp
	tick  int
	pool  *pool.Pool // nil = serial
}

// New builds the executor. workers is the shared-memory pool size
// (0 = GOMAXPROCS); with an effective count of 1 no pool is attached and
// every component runs its exact serial path.
func New(prog *sched.Program, comps []sched.Component, workers int) *Executor {
	e := &Executor{prog: prog, comps: comps}
	e.plan = make([][]planOp, prog.Period)
	for t := range e.plan {
		ops := prog.Ticks[t]
		po := make([]planOp, len(ops))
		for i, op := range ops {
			po[i] = planOp{Op: op, bufs: make([][]float64, len(op.Fields))}
			for fi, f := range op.Fields {
				po[i].bufs[fi] = make([]float64, comps[op.Src].FieldLen(f))
			}
		}
		e.plan[t] = po
	}
	if pl := pool.New(workers); pl.Workers() > 1 {
		e.pool = pl
		e.setPool(pl)
	}
	return e
}

func (e *Executor) setPool(p *pool.Pool) {
	for _, c := range e.comps {
		if pa, ok := c.(sched.PoolAware); ok {
			pa.SetPool(p)
		}
	}
}

// runTick executes one tick's ops in program order.
func (e *Executor) runTick(t int) {
	ops := e.plan[t%e.prog.Period]
	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case sched.OpStep:
			e.comps[op.Comp].Step()
		case sched.OpCouple:
			e.comps[op.Comp].Couple(e.prog.CoupleDt)
		case sched.OpXfer:
			for fi, f := range op.Fields {
				e.comps[op.Src].ExportInto(op.bufs[fi], f)
				e.comps[op.Dst].Import(f, op.bufs[fi])
			}
		}
	}
}

// Steps runs n consecutive ticks of the program.
func (e *Executor) Steps(n int) {
	for i := 0; i < n; i++ {
		e.runTick(e.tick)
		e.tick++
	}
}

// Tick returns the current global tick: the ticks run since construction,
// or since the position Seek installed.
func (e *Executor) Tick() int { return e.tick }

// Seek positions the executor at global tick t (e.g. after a checkpoint
// restore mid-coupling-interval), without running anything.
func (e *Executor) Seek(t int) { e.tick = t }

// Close detaches the pool from the components and stops its workers. The
// executor must be idle; afterwards it keeps working, serially. Close is
// idempotent.
func (e *Executor) Close() {
	if e.pool == nil {
		return
	}
	e.setPool(nil)
	e.pool.Close()
	e.pool = nil
}
