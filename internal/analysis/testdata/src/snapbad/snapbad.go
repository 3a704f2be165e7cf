// Package snapbad drops state from a checkpoint. comp accumulates a
// running diagnostic sum (acc) and a step counter (steps) every step;
// Snapshot forgets acc entirely and RestoreSnapshot puts back neither
// acc nor steps. Every fork of this component silently diverges from
// its parent on the first post-fork step — but only in acc and steps,
// so a fork-consistency test comparing the primary state vector passes,
// and the race detector has nothing to say. Checkpoint completeness has
// to be a static proof.
package snapbad

type comp struct {
	state []float64
	acc   []float64
	steps int
}

func newComp(n int) *comp {
	return &comp{state: make([]float64, n), acc: make([]float64, n)}
}

type snap struct {
	State []float64
	Steps int
}

func (c *comp) Step(dt float64) {
	for i := range c.state {
		c.state[i] += dt
		c.acc[i] += c.state[i]
	}
	c.steps++
}

func (c *comp) Snapshot() any { // want `\(\*snapbad\.comp\)\.Snapshot does not capture mutable field acc; write it into the snapshot or mark it //foam:transient with a reason`
	return &snap{
		State: append([]float64(nil), c.state...),
		Steps: c.steps,
	}
}

func (c *comp) RestoreSnapshot(s any) error { // want `\(\*snapbad\.comp\)\.RestoreSnapshot does not restore mutable field acc` `\(\*snapbad\.comp\)\.RestoreSnapshot does not restore mutable field steps`
	v, ok := s.(*snap)
	if !ok {
		return errBadSnapshot
	}
	copy(c.state, v.State)
	// steps is read for validation but never written back: reading is
	// not restoring.
	_ = c.steps
	return nil
}

type snapError string

func (e snapError) Error() string { return string(e) }

const errBadSnapshot = snapError("snapbad: wrong snapshot type")

// hcomp writes hist only through a slice of itself: still a mutable
// field that the checkpoint must carry.
type hcomp struct {
	state, hist []float64
}

func newHComp(n int) *hcomp {
	return &hcomp{state: make([]float64, n), hist: make([]float64, n+1)}
}

func (c *hcomp) Step() { copy(c.hist[1:], c.state) }

func (c *hcomp) Snapshot() any { // want `\(\*snapbad\.hcomp\)\.Snapshot does not capture mutable field hist`
	return append([]float64(nil), c.state...)
}

func (c *hcomp) RestoreSnapshot(s any) error { // want `\(\*snapbad\.hcomp\)\.RestoreSnapshot does not restore mutable field hist`
	v, ok := s.([]float64)
	if !ok {
		return errBadSnapshot
	}
	copy(c.state, v)
	return nil
}

// rcomp writes vel only through the rows rowOf returns, from the phase its
// constructor binds (the ocean's barotropic velocities): a phase runs at
// step time, not construction, and a store through a row stores to vel,
// so dropping vel from RestoreSnapshot is a finding.
type rcomp struct {
	nlon  int
	vel   []float64
	phase func(j int)
}

func newRComp(nlat, nlon int) *rcomp {
	c := &rcomp{nlon: nlon, vel: make([]float64, nlat*nlon)}
	c.bindPhases()
	return c
}

//foam:hotphases
func (c *rcomp) bindPhases() {
	c.phase = func(j int) { c.damp(j) }
}

func (c *rcomp) rowOf(f []float64, j int) []float64 {
	return f[j*c.nlon : (j+1)*c.nlon]
}

func (c *rcomp) damp(j int) {
	row := c.rowOf(c.vel, j)
	for i := range row {
		row[i] *= 0.5
	}
}

func (c *rcomp) Snapshot() any { return append([]float64(nil), c.vel...) }

func (c *rcomp) RestoreSnapshot(s any) error { // want `\(\*snapbad\.rcomp\)\.RestoreSnapshot does not restore mutable field vel`
	if _, ok := s.([]float64); !ok {
		return errBadSnapshot
	}
	return nil
}
