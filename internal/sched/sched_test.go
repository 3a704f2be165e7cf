package sched

import (
	"reflect"
	"strings"
	"testing"
)

// fakeComp is a component with nothing but declared coupling fields.
type fakeComp struct {
	name             string
	imports, exports []Field
}

func (c *fakeComp) Name() string                { return c.name }
func (c *fakeComp) Step()                       {}
func (c *fakeComp) Couple(float64)              {}
func (c *fakeComp) Imports() []Field            { return c.imports }
func (c *fakeComp) Exports() []Field            { return c.exports }
func (c *fakeComp) FieldLen(Field) int          { return 1 }
func (c *fakeComp) ExportInto([]float64, Field) {}
func (c *fakeComp) Import(Field, []float64)     {}

// pair is a fast/slow pair whose export lists are deliberately in a
// different order from (and wider than) the other side's imports.
func pair() []Component {
	fast := &fakeComp{name: "fast",
		imports: []Field{FieldSST, FieldIceForm, FieldCurrentU},
		exports: []Field{FieldFreshWater, FieldHeat, FieldTauY, FieldTauX}}
	slow := &fakeComp{name: "slow",
		imports: []Field{FieldTauX, FieldTauY, FieldHeat},
		exports: []Field{FieldCurrentV, FieldCurrentU, FieldIceForm, FieldSST}}
	return []Component{fast, slow}
}

// Transfers move the importer's fields, in the importer's declared order,
// restricted to what the exporter offers.
var (
	forcing = []Field{FieldTauX, FieldTauY, FieldHeat}
	surface = []Field{FieldSST, FieldIceForm, FieldCurrentU}
)

func TestCompileGoldenOpTables(t *testing.T) {
	step0 := Op{Kind: OpStep, Comp: 0}
	couple := []Op{
		{Kind: OpCouple, Comp: 0},
		{Kind: OpXfer, Src: 0, Dst: 1, Fields: forcing},
		{Kind: OpStep, Comp: 1},
	}
	back := Op{Kind: OpXfer, Src: 1, Dst: 0, Fields: surface}
	// The coupling tick by lag: lag 0 closes the interval, steps the slow
	// component and returns its new surface; lag 1 takes the surface the
	// slow component already has, then closes the interval and steps it.
	couplingTick := map[int][]Op{
		0: append(append([]Op{step0}, couple...), back),
		1: append([]Op{step0, back}, couple...),
	}
	for _, every := range []int{1, 12} {
		for _, lag := range []int{0, 1} {
			p, err := Schedule{BaseDt: 1800, CoupleEvery: every, RadiationEvery: 24, Lag: lag}.Compile(pair())
			if err != nil {
				t.Fatalf("every %d lag %d: %v", every, lag, err)
			}
			if p.Period != every || len(p.Ticks) != every || p.BaseDt != 1800 || p.CoupleDt != 1800*float64(every) {
				t.Fatalf("every %d lag %d: period %d, %d ticks, dt %v/%v", every, lag, p.Period, len(p.Ticks), p.BaseDt, p.CoupleDt)
			}
			for tick := 0; tick < every-1; tick++ {
				if !reflect.DeepEqual(p.Ticks[tick], []Op{step0}) {
					t.Errorf("every %d lag %d tick %d: %+v, want the fast step alone", every, lag, tick, p.Ticks[tick])
				}
			}
			if got := p.Ticks[every-1]; !reflect.DeepEqual(got, couplingTick[lag]) {
				t.Errorf("every %d lag %d coupling tick:\n got %+v\nwant %+v", every, lag, got, couplingTick[lag])
			}
			// The program is periodic.
			if !reflect.DeepEqual(p.TickOps(3*every+every-1), p.Ticks[every-1]) || !reflect.DeepEqual(p.TickOps(5*every), p.Ticks[0]) {
				t.Errorf("every %d lag %d: TickOps does not wrap around the period", every, lag)
			}
		}
	}
}

func TestCompileRejections(t *testing.T) {
	ok := Schedule{BaseDt: 1800, CoupleEvery: 12, Lag: 0}
	cases := []struct {
		name  string
		s     Schedule
		comps []Component
		want  string
	}{
		{"one component", ok, pair()[:1], "fast/slow component pair"},
		{"three components", ok, append(pair(), pair()[0]), "fast/slow component pair"},
		{"zero dt", Schedule{BaseDt: 0, CoupleEvery: 12}, pair(), "BaseDt"},
		{"negative dt", Schedule{BaseDt: -1, CoupleEvery: 12}, pair(), "BaseDt"},
		{"zero cadence", Schedule{BaseDt: 1800, CoupleEvery: 0}, pair(), "CoupleEvery"},
		{"negative lag", Schedule{BaseDt: 1800, CoupleEvery: 12, Lag: -1}, pair(), "Lag"},
		{"lag two", Schedule{BaseDt: 1800, CoupleEvery: 12, Lag: 2}, pair(), "Lag"},
	}
	for _, tc := range cases {
		p, err := tc.s.Compile(tc.comps)
		if err == nil || p != nil {
			t.Errorf("%s: Compile accepted it (program %v)", tc.name, p)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.want)
		}
	}
}
