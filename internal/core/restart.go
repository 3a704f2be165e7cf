package core

import (
	"errors"
	"fmt"
	"io"
	"os"

	"foam/internal/atmos"
	"foam/internal/ocean"
)

// The three ways a checkpoint fails. LoadCheckpoint returns the first two,
// Model.Restore the third; each wraps the class with the detail.
var (
	// ErrCheckpointFormat: not a version-1 container, truncated, or not
	// the sections this build's Checkpoint has.
	ErrCheckpointFormat = errors.New("core: malformed checkpoint")
	// ErrCheckpointCorrupt: a section's checksum does not match its bytes.
	ErrCheckpointCorrupt = errors.New("core: corrupt checkpoint")
	// ErrCheckpointMismatch: a checkpoint whose shapes are not the model's
	// (another resolution, or a hand-built incomplete value).
	ErrCheckpointMismatch = errors.New("core: checkpoint does not fit the model")
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
	// at a coupling boundary.
	AccTauX   []float64
	AccTauY   []float64
	AccHeat   []float64
	AccFW     []float64
	AccRunoff []float64
	AccSteps  int

	// The coupler's mirrored ocean surface. Under a lagged schedule this
	// trails the ocean's live state by one interval, so it cannot be
	// reconstructed from the ocean snapshot.
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

// Restore installs a checkpoint onto a model with the same configuration
// and re-phases the executor, so the next Step replays exactly the op
// sequence the original run would have executed. Every slice length is
// checked against the model before the first write: a checkpoint from
// another resolution, or an incomplete one, is ErrCheckpointMismatch and
// leaves the model as it was.
func (m *Model) Restore(c *Checkpoint) error {
	if c.Atm == nil || c.Ocn == nil {
		return fmt.Errorf("%w: incomplete checkpoint", ErrCheckpointMismatch)
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
	// The ocean restores first and checks itself; checking the atmosphere
	// side before it means nothing is written unless both fit.
	err := m.atmC.fits(as)
	if err == nil {
		err = m.ocnC.RestoreSnapshot(c.Ocn)
	}
	if err == nil {
		err = m.atmC.RestoreSnapshot(as)
	}
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCheckpointMismatch, err)
	}
	m.ex.Seek(c.Step)
	return nil
}

// Save writes the checkpoint to w as a version-1 container (container.go):
// versioned, checksummed per section, and byte-identical for identical
// state.
func (c *Checkpoint) Save(w io.Writer) error { return encodeCheckpoint(w, c) }

// LoadCheckpoint reads a version-1 container. Anything else — another
// format or version, a truncated file — is ErrCheckpointFormat, and a
// checksum failure ErrCheckpointCorrupt; r must end where the container
// does.
func LoadCheckpoint(r io.Reader) (*Checkpoint, error) { return decodeCheckpoint(r) }

// SaveFile writes the checkpoint to path atomically: to path+".tmp", which
// replaces path only once it is completely written, synced and closed. A
// failure leaves whatever was at path — the previous link of a restart
// chain — untouched.
func (c *Checkpoint) SaveFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o666)
	if err != nil {
		return err
	}
	err = c.Save(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp) // best effort; the error that matters is already in hand
	}
	return err
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
