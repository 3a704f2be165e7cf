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
// the r21 slab spec the benchmark runs, on a prescribed (off) ocean, and on
// the test workhorse. The surface-only oceans' absent fields come back nil.
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
		{"r5 off", scenario.Spec{Rung: "r5", Ocean: scenario.OceanSpec{Mode: "off"}}, 40},
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

// mismatchCase is one edit of a valid checkpoint that Restore must refuse
// with an error containing want.
type mismatchCase struct {
	name, want string
	edit       func(c *core.Checkpoint)
}

// sliceEdits walks every slice-valued field of a checkpoint, of its
// atmosphere snapshot and of its ocean snapshot by reflection, and gives
// for each field its nil value, the slice shortened by one and, for a
// field of rows, its first and its last row shortened by one. A field
// added to any of the three structs joins the table without an edit here.
func sliceEdits(sample *core.Checkpoint) []mismatchCase {
	var out []mismatchCase
	for _, part := range []struct {
		prefix, want string
		of           func(c *core.Checkpoint) reflect.Value
	}{
		{"", "checkpoint field ", func(c *core.Checkpoint) reflect.Value { return reflect.ValueOf(c).Elem() }},
		{"Atm.", "atmos: snapshot field ", func(c *core.Checkpoint) reflect.Value { return reflect.ValueOf(c.Atm).Elem() }},
		{"Ocn.", "ocean: snapshot field ", func(c *core.Checkpoint) reflect.Value { return reflect.ValueOf(c.Ocn).Elem() }},
	} {
		typ := part.of(sample).Type()
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if f.Type.Kind() != reflect.Slice {
				continue
			}
			of, name, want := part.of, part.prefix+f.Name, part.want+f.Name+" "
			field := func(c *core.Checkpoint) reflect.Value { return of(c).Field(i) }
			out = append(out,
				mismatchCase{name + " nil", want, func(c *core.Checkpoint) {
					v := field(c)
					v.Set(reflect.Zero(v.Type()))
				}},
				mismatchCase{name + " short", want, func(c *core.Checkpoint) {
					v := field(c)
					v.SetLen(v.Len() - 1)
				}})
			if f.Type.Elem().Kind() == reflect.Slice {
				shortRow := func(row func(n int) int) func(c *core.Checkpoint) {
					return func(c *core.Checkpoint) {
						v := field(c)
						v = v.Index(row(v.Len()))
						v.SetLen(v.Len() - 1)
					}
				}
				out = append(out,
					mismatchCase{name + " short first row", want, shortRow(func(int) int { return 0 })},
					mismatchCase{name + " short last row", want, shortRow(func(n int) int { return n - 1 })})
			}
		}
	}
	return out
}

// TestRestoreRejectsMismatch: a checkpoint whose shapes are not the
// model's — any slice field nil, one short or with a short first or last
// row (a missing level used to panic inside atmos.Restore, a short row to
// restore partly and return nil), another resolution — or whose scheduler
// phase no run reaches (a negative step, or one so large that the
// executor's tick wraps negative, used to restore and then panic in the
// executor) is ErrCheckpointMismatch naming the field, and the model
// is exactly as it was.
func TestRestoreRejectsMismatch(t *testing.T) {
	m := buildScenario(t, "r5-quick", 1)
	m.StepDays(0.5)
	before := stateHash(m.Checkpoint())

	// The donor stops mid-interval, so its checkpoint carries accumulated
	// steps.
	donor := buildScenario(t, "r5-quick", 1)
	donor.StepDays(1)
	donor.Step()
	cases := append(sliceEdits(donor.Checkpoint()),
		mismatchCase{"negative step", "field Step ", func(c *core.Checkpoint) { c.Step = -5 }},
		mismatchCase{"negative step throughout", "field Step ", func(c *core.Checkpoint) { c.Step, c.Atm.Step, c.AccSteps = -1, -1, -1 }},
		mismatchCase{"step past any run", "field Step ", func(c *core.Checkpoint) {
			every := m.Config().OceanEvery
			c.Step = (1<<53/every+1)*every + c.AccSteps
			c.Atm.Step = c.Step
		}},
		mismatchCase{"atmosphere step off the tick", "field Atm.Step ", func(c *core.Checkpoint) { c.Atm.Step++ }},
		mismatchCase{"accumulated steps of a coupling boundary", "field AccSteps ", func(c *core.Checkpoint) { c.AccSteps = 0 }},
		mismatchCase{"accumulated steps past the phase", "field AccSteps ", func(c *core.Checkpoint) { c.AccSteps += m.Config().OceanEvery }},
		mismatchCase{"no atmosphere snapshot", "incomplete", func(c *core.Checkpoint) { c.Atm = nil }},
		mismatchCase{"no ocean snapshot", "incomplete", func(c *core.Checkpoint) { c.Ocn = nil }},
	)
	for _, tc := range cases {
		c := donor.Checkpoint()
		tc.edit(c)
		err := m.Restore(c)
		if !errors.Is(err, core.ErrCheckpointMismatch) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want %v containing %q", tc.name, err, core.ErrCheckpointMismatch, tc.want)
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

	// A slab ocean holds only its surface layer: a full ocean's checkpoint
	// does not fit it, nor a slab's checkpoint a full ocean.
	slab := buildScenario(t, "slab-ocean", 1)
	slab.StepDays(0.5)
	slabBefore := stateHash(slab.Checkpoint())
	for _, tc := range []struct {
		name string
		dst  *core.Model
		chk  *core.Checkpoint
	}{
		{"a full-ocean checkpoint onto a slab model", slab, donor.Checkpoint()},
		{"a slab checkpoint onto a full-ocean model", m, slab.Checkpoint()},
	} {
		err := tc.dst.Restore(tc.chk)
		if !errors.Is(err, core.ErrCheckpointMismatch) || !strings.Contains(err.Error(), "ocean: snapshot field U ") {
			t.Errorf("%s: error %v, want %v naming ocean field U", tc.name, err, core.ErrCheckpointMismatch)
		}
	}
	if stateHash(m.Checkpoint()) != before || stateHash(slab.Checkpoint()) != slabBefore {
		t.Fatal("a rejected restore across ocean layouts changed the model")
	}
	if err := m.Restore(donor.Checkpoint()); err != nil || m.StepCount() != donor.StepCount() {
		t.Fatalf("the unedited checkpoint: error %v, step %d want %d", err, m.StepCount(), donor.StepCount())
	}
}
