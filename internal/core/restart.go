package core

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"foam/internal/atmos"
	"foam/internal/ocean"
)

// Checkpoint is the complete restartable state of the coupled model. The
// long simulations the paper targets (500+ years) run as restart chains.
// Since PR 5 a checkpoint also round-trips the scheduler phase — the step
// index within the ocean/radiation cadence, the mid-interval flux
// accumulators, and the coupler's mirrored ocean surface — so checkpoints
// may be taken at any step, not just coupling boundaries, and a restore
// mid-coupling-interval is lockstep-identical.
type Checkpoint struct {
	Step int
	Atm  *atmos.Snapshot
	Ocn  *ocean.Snapshot

	// Coupler surface state.
	LandT     [][4]float64
	LandWater []float64
	LandSnow  []float64
	RiverVol  []float64
	IceThick  []float64
	IceTSurf  []float64

	// Mid-interval ocean-forcing accumulators (ocean grid; AccRunoff on
	// the atmosphere grid) and the atmosphere steps they cover. All-zero
	// at a coupling boundary. Nil in pre-PR5 checkpoints, which therefore
	// restore exactly only at coupling boundaries — as they always did.
	AccTauX   []float64
	AccTauY   []float64
	AccHeat   []float64
	AccFW     []float64
	AccRunoff []float64
	AccSteps  int

	// The coupler's mirrored ocean surface. Under a lagged schedule this
	// trails the ocean's live state by one interval, so it cannot be
	// reconstructed from the ocean snapshot. Nil in pre-PR5 checkpoints
	// (restored by re-absorbing the live ocean state, correct for the
	// synchronous schedule those runs used).
	CplSST     []float64
	CplIceForm []float64
}

// Checkpoint captures the model state through the components' Snapshotter
// faces. It may be called at any step; the scheduler phase (step index
// within the coupling cadence plus pending flux accumulators) rides along.
func (m *Model) Checkpoint() *Checkpoint {
	as := m.atmC.Snapshot().(*atmState)
	osn := m.ocnC.Snapshot().(*ocean.Snapshot)
	return &Checkpoint{
		Step:       m.ex.Tick(),
		Atm:        as.atm,
		Ocn:        osn,
		LandT:      as.landT,
		LandWater:  as.landWater,
		LandSnow:   as.landSnow,
		RiverVol:   as.riverVol,
		IceThick:   as.iceThick,
		IceTSurf:   as.iceTSurf,
		AccTauX:    as.accTauX,
		AccTauY:    as.accTauY,
		AccHeat:    as.accHeat,
		AccFW:      as.accFW,
		AccRunoff:  as.accRunoff,
		AccSteps:   as.accSteps,
		CplSST:     as.mirSST,
		CplIceForm: as.mirIceForm,
	}
}

// Restore installs a checkpoint onto a freshly constructed model with the
// same configuration and re-phases the executor, so the next Step replays
// exactly the op sequence the original run would have executed.
func (m *Model) Restore(c *Checkpoint) error {
	if c.Atm == nil || c.Ocn == nil {
		return fmt.Errorf("core: incomplete checkpoint")
	}
	if err := m.ocnC.RestoreSnapshot(c.Ocn); err != nil {
		return err
	}
	as := &atmState{
		atm:        c.Atm,
		landT:      c.LandT,
		landWater:  c.LandWater,
		landSnow:   c.LandSnow,
		riverVol:   c.RiverVol,
		iceThick:   c.IceThick,
		iceTSurf:   c.IceTSurf,
		accTauX:    c.AccTauX,
		accTauY:    c.AccTauY,
		accHeat:    c.AccHeat,
		accFW:      c.AccFW,
		accRunoff:  c.AccRunoff,
		accSteps:   c.AccSteps,
		mirSST:     c.CplSST,
		mirIceForm: c.CplIceForm,
	}
	if err := m.atmC.RestoreSnapshot(as); err != nil {
		return err
	}
	if c.CplSST == nil {
		// Pre-PR5 checkpoint: the mirror is the live ocean surface.
		m.Cpl.AbsorbOcean(m.Ocn)
	}
	m.ex.Seek(c.Step)
	return nil
}

// Save writes a checkpoint with gob encoding.
func (c *Checkpoint) Save(w io.Writer) error {
	return gob.NewEncoder(w).Encode(c)
}

// LoadCheckpoint reads a gob checkpoint.
func LoadCheckpoint(r io.Reader) (*Checkpoint, error) {
	var c Checkpoint
	if err := gob.NewDecoder(r).Decode(&c); err != nil {
		return nil, err
	}
	return &c, nil
}

// SaveFile and LoadFile are path conveniences.
func (c *Checkpoint) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return c.Save(f)
}

// LoadCheckpointFile reads a checkpoint from a file.
func LoadCheckpointFile(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadCheckpoint(f)
}
