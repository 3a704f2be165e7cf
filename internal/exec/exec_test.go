package exec

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"foam/internal/pool"
	"foam/internal/sched"
)

// recorder is a component that appends every call the executor makes to a
// log shared by the pair, so the log is the executed op sequence.
type recorder struct {
	name             string
	imports, exports []sched.Field
	log              *[]string
	value            float64 // what ExportInto writes; Import records what arrived
}

func (c *recorder) Name() string { return c.name }
func (c *recorder) Step()        { *c.log = append(*c.log, c.name+".step") }
func (c *recorder) Couple(dt float64) {
	*c.log = append(*c.log, fmt.Sprintf("%s.couple(%g)", c.name, dt))
}
func (c *recorder) Imports() []sched.Field   { return c.imports }
func (c *recorder) Exports() []sched.Field   { return c.exports }
func (c *recorder) FieldLen(sched.Field) int { return 2 }
func (c *recorder) ExportInto(dst []float64, f sched.Field) {
	*c.log = append(*c.log, fmt.Sprintf("%s.export(%s,len %d)", c.name, f, len(dst)))
	dst[0] = c.value
}
func (c *recorder) Import(f sched.Field, src []float64) {
	*c.log = append(*c.log, fmt.Sprintf("%s.import(%s=%g)", c.name, f, src[0]))
}

// pooled is a recorder that is also PoolAware and remembers what it was
// handed.
type pooled struct {
	recorder
	pools []*pool.Pool
}

func (c *pooled) SetPool(p *pool.Pool) { c.pools = append(c.pools, p) }

// fixture compiles a 3-tick coupling interval over a PoolAware fast
// component and a plain slow one.
func fixture(t *testing.T, lag int) (*sched.Program, []sched.Component, *pooled, *[]string) {
	t.Helper()
	log := &[]string{}
	fast := &pooled{recorder: recorder{name: "atm", log: log, value: 1,
		imports: []sched.Field{sched.FieldSST}, exports: []sched.Field{sched.FieldTauX, sched.FieldHeat}}}
	slow := &recorder{name: "ocn", log: log, value: 2,
		imports: []sched.Field{sched.FieldTauX, sched.FieldHeat}, exports: []sched.Field{sched.FieldSST}}
	comps := []sched.Component{fast, slow}
	prog, err := sched.Schedule{BaseDt: 10, CoupleEvery: 3, Lag: lag}.Compile(comps)
	if err != nil {
		t.Fatal(err)
	}
	return prog, comps, fast, log
}

var (
	forcingXfer = []string{
		"atm.export(tauX,len 2)", "ocn.import(tauX=1)",
		"atm.export(heat,len 2)", "ocn.import(heat=1)",
	}
	surfaceXfer = []string{"ocn.export(sst,len 2)", "atm.import(sst=2)"}
)

func cat(parts ...[]string) []string {
	var out []string
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// The executor runs each tick's ops in program order, a transfer being one
// export-then-import per field through a buffer of the exporter's FieldLen.
func TestOpOrderPerTick(t *testing.T) {
	plain := []string{"atm.step"}
	coupling := map[int][]string{
		0: cat(plain, []string{"atm.couple(30)"}, forcingXfer, []string{"ocn.step"}, surfaceXfer),
		1: cat(plain, surfaceXfer, []string{"atm.couple(30)"}, forcingXfer, []string{"ocn.step"}),
	}
	for _, lag := range []int{0, 1} {
		prog, comps, _, log := fixture(t, lag)
		e := New(prog, comps, 1)
		for tick := 0; tick < 6; tick++ {
			*log = nil
			e.Steps(1)
			want := plain
			if tick%3 == 2 {
				want = coupling[lag]
			}
			if !reflect.DeepEqual(*log, want) {
				t.Errorf("lag %d tick %d:\n got %v\nwant %v", lag, tick, *log, want)
			}
			if e.Tick() != tick+1 {
				t.Errorf("lag %d: Tick() = %d after %d ticks", lag, e.Tick(), tick+1)
			}
		}
		// One Steps(n) call is n Steps(1) calls.
		*log = nil
		e.Steps(3)
		if want := cat(plain, plain, coupling[lag]); !reflect.DeepEqual(*log, want) {
			t.Errorf("lag %d Steps(3):\n got %v\nwant %v", lag, *log, want)
		}
	}
}

// Seek positions the executor inside a coupling interval: from global tick
// 7 of a 3-tick cadence the next tick is a plain one and the one after it
// couples.
func TestSeekMidPeriod(t *testing.T) {
	prog, comps, _, log := fixture(t, 0)
	e := New(prog, comps, 1)
	e.Seek(7)
	if e.Tick() != 7 || len(*log) != 0 {
		t.Fatalf("Seek ran something or lost the tick: tick %d, log %v", e.Tick(), *log)
	}
	e.Steps(1)
	if !reflect.DeepEqual(*log, []string{"atm.step"}) {
		t.Fatalf("tick 7 should be plain, ran %v", *log)
	}
	*log = nil
	e.Steps(1)
	if len(*log) != 9 || (*log)[1] != "atm.couple(30)" {
		t.Fatalf("tick 8 should couple, ran %v", *log)
	}
}

// With more than one worker the executor hands one pool to every PoolAware
// component; Close takes it back (SetPool(nil)), is idempotent, and leaves
// a working serial executor behind.
func TestCloseDetachesPool(t *testing.T) {
	prog, comps, fast, log := fixture(t, 0)
	e := New(prog, comps, 3)
	if len(fast.pools) != 1 || fast.pools[0].Workers() != 3 {
		t.Fatalf("New(workers=3) attached %v, want one 3-worker pool", fast.pools)
	}
	e.Steps(2)
	e.Close()
	e.Close()
	if len(fast.pools) != 2 || fast.pools[1] != nil {
		t.Fatalf("Close should detach the pool exactly once: SetPool calls %v", fast.pools)
	}
	*log = nil
	e.Steps(1)
	if len(*log) != 9 {
		t.Fatalf("a closed executor should keep stepping serially, at tick 2 of the interval: ran %v", *log)
	}
}

// One worker is the serial path: nothing is attached, and Close has nothing
// to detach.
func TestOneWorkerAttachesNoPool(t *testing.T) {
	prog, comps, fast, _ := fixture(t, 0)
	e := New(prog, comps, 1)
	e.Steps(3)
	e.Close()
	if len(fast.pools) != 0 {
		t.Fatalf("workers=1 touched the component's pool: %v", fast.pools)
	}
	// workers=0 means every CPU; on one CPU that is the serial path too.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	New(prog, comps, 0).Close()
	if len(fast.pools) != 0 {
		t.Fatalf("workers=0 on one CPU touched the component's pool: %v", fast.pools)
	}
}
