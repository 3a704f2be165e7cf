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

// Checkpoint copies the model state out of the atmosphere, the ocean and
// the coupler. It may be called at any step; the scheduler phase (step
// index within the coupling cadence plus pending flux accumulators) rides
// along.
func (m *Model) Checkpoint() *Checkpoint {
	cp := m.Cpl
	c := &Checkpoint{
		Step:      m.ex.Tick(),
		Atm:       m.Atm.Snapshot(),
		Ocn:       m.Ocn.Snapshot(),
		LandT:     append([][4]float64(nil), cp.Land.T...),
		LandWater: append([]float64(nil), cp.Land.Water...),
		LandSnow:  append([]float64(nil), cp.Land.Snow...),
		RiverVol:  append([]float64(nil), cp.River.Volume...),
		IceThick:  append([]float64(nil), cp.Ice.Thick...),
		IceTSurf:  append([]float64(nil), cp.Ice.TSurf...),
	}
	c.AccTauX, c.AccTauY, c.AccHeat, c.AccFW, c.AccRunoff, c.AccSteps = cp.AccumSnapshot()
	c.CplSST, c.CplIceForm = cp.MirrorSnapshot()
	return c
}

// Restore installs a checkpoint onto a model with the same configuration
// and re-phases the executor, so the next Step replays exactly the op
// sequence the original run would have executed. The whole checkpoint is
// checked against the model before the first write: a checkpoint from
// another resolution, an incomplete one, or one whose scheduler phase no
// run can reach is ErrCheckpointMismatch and leaves the model as it was.
func (m *Model) Restore(c *Checkpoint) error {
	if err := m.fits(c); err != nil {
		return fmt.Errorf("%w: %v", ErrCheckpointMismatch, err)
	}
	// Everything fits, so the component restores cannot fail.
	m.Ocn.Restore(c.Ocn)
	m.Atm.Restore(c.Atm)
	cp := m.Cpl
	copy(cp.Land.T, c.LandT)
	copy(cp.Land.Water, c.LandWater)
	copy(cp.Land.Snow, c.LandSnow)
	copy(cp.River.Volume, c.RiverVol)
	copy(cp.Ice.Thick, c.IceThick)
	copy(cp.Ice.TSurf, c.IceTSurf)
	cp.RestoreAccum(c.AccTauX, c.AccTauY, c.AccHeat, c.AccFW, c.AccRunoff, c.AccSteps)
	cp.SetSST(c.CplSST)
	cp.SetIceFormation(c.CplIceForm)
	m.ex.Seek(c.Step)
	return nil
}

// maxStep bounds a checkpoint's step: 2^53 ticks lie far past any restart
// chain (500 years at R21 is about 1.2·10^7), and the executor's tick counter
// cannot wrap negative stepping on from there.
const maxStep = 1 << 53

// fits reports the first part of c that does not fit the model: a
// scheduler phase no run reaches, either component's shapes, or the length
// of a coupler field.
func (m *Model) fits(c *Checkpoint) error {
	if c.Atm == nil || c.Ocn == nil {
		return errors.New("incomplete checkpoint")
	}
	// The atmosphere steps once per tick and the coupler accumulates once
	// per atmosphere step since the last drain; without column physics
	// there is no surface exchange and nothing accumulates.
	accSteps := c.Step % m.cfg.OceanEvery
	if m.cfg.Atm.Adiabatic {
		accSteps = 0
	}
	switch {
	case c.Step < 0 || int64(c.Step) > maxStep:
		return fmt.Errorf("checkpoint field Step is %d, outside [0, %d]", c.Step, int64(maxStep))
	case c.Atm.Step != c.Step:
		return fmt.Errorf("checkpoint field Atm.Step is %d, Step is %d", c.Atm.Step, c.Step)
	case c.AccSteps != accSteps:
		return fmt.Errorf("checkpoint field AccSteps is %d, Step %d needs %d", c.AccSteps, c.Step, accSteps)
	}
	if err := m.Atm.Fits(c.Atm); err != nil {
		return err
	}
	if err := m.Ocn.Fits(c.Ocn); err != nil {
		return err
	}
	cp := m.Cpl
	nAtm, nOcn := len(cp.Land.Water), cp.OcnGrid.Size()
	for _, f := range []struct {
		name      string
		got, want int
	}{
		{"LandT", len(c.LandT), len(cp.Land.T)}, {"LandWater", len(c.LandWater), nAtm},
		{"LandSnow", len(c.LandSnow), len(cp.Land.Snow)}, {"RiverVol", len(c.RiverVol), len(cp.River.Volume)},
		{"IceThick", len(c.IceThick), len(cp.Ice.Thick)}, {"IceTSurf", len(c.IceTSurf), len(cp.Ice.TSurf)},
		{"AccTauX", len(c.AccTauX), nOcn}, {"AccTauY", len(c.AccTauY), nOcn},
		{"AccHeat", len(c.AccHeat), nOcn}, {"AccFW", len(c.AccFW), nOcn},
		{"AccRunoff", len(c.AccRunoff), nAtm},
		{"CplSST", len(c.CplSST), nOcn}, {"CplIceForm", len(c.CplIceForm), nOcn},
	} {
		if f.got != f.want {
			return fmt.Errorf("checkpoint field %s has length %d, the model has %d", f.name, f.got, f.want)
		}
	}
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
