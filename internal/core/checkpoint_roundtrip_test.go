package core_test

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"foam/internal/core"
	"foam/internal/scenario"
)

func save(t testing.TB, c *core.Checkpoint) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCheckpointRoundTrip: save → load gives back the same value, bit for
// bit (a planted -0 included), and saving that again gives the same bytes,
// at the paper's resolution mid-interval (non-zero flux accumulators), on
// the r21 slab spec the benchmark runs, and on the test workhorse.
func TestCheckpointRoundTrip(t *testing.T) {
	r5, _ := scenario.Lookup("r5-quick")
	paper, _ := scenario.Lookup("paper-foam")
	cases := []struct {
		name  string
		spec  scenario.Spec
		steps int
	}{
		{"r5-quick", r5, 40},
		{"paper-foam mid-interval", paper, 15},
		{"r21 slab", scenario.Spec{Rung: "r21", Ocean: scenario.OceanSpec{Mode: "slab", SlabDepth: 50}}, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && tc.spec.Rung != "r5" {
				t.Skip("paper resolution; plain go test runs it")
			}
			m := buildSpec(t, tc.spec, 1)
			for i := 0; i < tc.steps; i++ {
				m.Step()
			}
			chk := m.Checkpoint()
			if chk.AccSteps == 0 && tc.steps%m.Config().OceanEvery != 0 {
				t.Fatal("a mid-interval checkpoint has no accumulated steps")
			}
			chk.LandSnow[0] = math.Copysign(0, -1)
			data := save(t, chk)
			got, err := core.LoadCheckpoint(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, chk) {
				t.Fatal("the loaded checkpoint differs from the saved one")
			}
			if stateHash(got) != stateHash(chk) || !math.Signbit(got.LandSnow[0]) {
				t.Fatal("the loaded checkpoint differs from the saved one in its bit patterns")
			}
			if !bytes.Equal(save(t, got), data) {
				t.Fatal("save → load → save changed the bytes")
			}
		})
	}
}

// TestCheckpointNilAndEmpty: nil and empty slices are the same state and
// both come back nil.
func TestCheckpointNilAndEmpty(t *testing.T) {
	m := buildScenario(t, "r5-quick", 1)
	chk := m.Checkpoint()
	chk.LandT, chk.AccHeat, chk.Atm.QR, chk.Atm.LnpsO, chk.Atm.VortO = [][4]float64{}, []float64{}, [][]float64{}, []complex128{}, [][]complex128{{}, {}}
	got, err := core.LoadCheckpoint(bytes.NewReader(save(t, chk)))
	if err != nil {
		t.Fatal(err)
	}
	if got.LandT != nil || got.AccHeat != nil || got.Atm.QR != nil || got.Atm.LnpsO != nil || got.Atm.VortO != nil {
		t.Fatalf("empty slices came back as %v %v %v %v %v, want nil", got.LandT, got.AccHeat, got.Atm.QR, got.Atm.LnpsO, got.Atm.VortO)
	}
	chk.LandT, chk.AccHeat, chk.Atm.QR, chk.Atm.LnpsO, chk.Atm.VortO = nil, nil, nil, nil, nil
	if !reflect.DeepEqual(got, chk) {
		t.Fatal("the rest of the checkpoint changed")
	}
}

// TestRestoreRejectsMismatch: a checkpoint whose shapes are not the
// model's — missing levels (which used to panic inside atmos.Restore),
// short rows (which used to restore partly and return nil), a nil coupler
// mirror, another resolution — is ErrCheckpointMismatch naming the field,
// and the model is exactly as it was.
func TestRestoreRejectsMismatch(t *testing.T) {
	m := buildScenario(t, "r5-quick", 1)
	m.StepDays(0.5)
	before := stateHash(m.Checkpoint())

	donor := buildScenario(t, "r5-quick", 1)
	donor.StepDays(1)
	cases := []struct {
		name  string
		field string
		edit  func(c *core.Checkpoint)
	}{
		{"missing atmosphere levels", "VortC", func(c *core.Checkpoint) { c.Atm.VortC = nil }},
		{"short atmosphere row", "Q", func(c *core.Checkpoint) { c.Atm.Q[3] = c.Atm.Q[3][:10] }},
		{"short ocean row", "T", func(c *core.Checkpoint) { c.Ocn.T[0] = c.Ocn.T[0][:10] }},
		{"missing ocean diagnostic", "IceFlux", func(c *core.Checkpoint) { c.Ocn.IceFlux = nil }},
		{"short land field", "LandSnow", func(c *core.Checkpoint) { c.LandSnow = c.LandSnow[:5] }},
		{"nil coupler mirror", "CplSST", func(c *core.Checkpoint) { c.CplSST = nil }},
		{"nil accumulator", "AccRunoff", func(c *core.Checkpoint) { c.AccRunoff = nil }},
		{"no ocean snapshot", "incomplete", func(c *core.Checkpoint) { c.Ocn = nil }},
	}
	for _, tc := range cases {
		c := donor.Checkpoint()
		tc.edit(c)
		err := m.Restore(c)
		if !errors.Is(err, core.ErrCheckpointMismatch) || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: error %v, want %v naming %s", tc.name, err, core.ErrCheckpointMismatch, tc.field)
		}
		if after := stateHash(m.Checkpoint()); after != before {
			t.Fatalf("%s: the rejected restore changed the model", tc.name)
		}
	}

	paper := buildScenario(t, "paper-foam", 1)
	if err := m.Restore(paper.Checkpoint()); !errors.Is(err, core.ErrCheckpointMismatch) {
		t.Errorf("an R15 checkpoint onto an R5 model: error %v, want %v", err, core.ErrCheckpointMismatch)
	}
	if err := paper.Restore(donor.Checkpoint()); !errors.Is(err, core.ErrCheckpointMismatch) {
		t.Errorf("an R5 checkpoint onto an R15 model: error %v, want %v", err, core.ErrCheckpointMismatch)
	}
	if after := stateHash(m.Checkpoint()); after != before {
		t.Fatal("the rejected restores changed the model")
	}
	if err := m.Restore(donor.Checkpoint()); err != nil || m.StepCount() != donor.StepCount() {
		t.Fatalf("the unedited checkpoint: error %v, step %d want %d", err, m.StepCount(), donor.StepCount())
	}
}
