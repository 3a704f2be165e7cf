package core_test

import (
	"testing"

	"foam/internal/core"
	"foam/internal/scenario"
)

// TestSharedTablesBitIdentical pins the shared-table construction path:
// a model adopting a prebuilt Tables set must produce exactly the
// trajectory of a model that built every table privately — the tables are
// the same values, only built once. Both lags, since they are distinct
// trajectories. It then holds the tables read-only: three members on one
// set, with orography scales 1, 1.5 and 0.5 and distinct hyperdiffusion,
// step two coupling intervals on r5-quick and on ice-world, and the hash
// of everything reachable from the set — unexported fields, the spectral
// transform, grids, overlap and rivers included — must be what it was
// before the first member was built.
func TestSharedTablesBitIdentical(t *testing.T) {
	for _, lag := range []int{0, 1} {
		cfg := scenarioConfig(t, "r5-quick")
		cfg.Workers = 1
		cfg.OceanLag = lag

		ref := newModel(t, cfg, nil)
		got := newModel(t, cfg, core.BuildTables(cfg))

		steps := 2*cfg.OceanEvery + 1 // cross two coupling ticks, end mid-interval
		if testing.Short() {
			steps = cfg.OceanEvery + 1
		}
		for i := 0; i < steps; i++ {
			ref.Step()
			got.Step()
		}
		if a, b := stateHash(ref.Checkpoint()), stateHash(got.Checkpoint()); a != b {
			t.Errorf("lag %d: shared-table state hashes %s, private-table %s", lag, b, a)
		}
	}

	for _, name := range []string{"r5-quick", "ice-world"} {
		t.Run(name, func(t *testing.T) {
			sp, _ := scenario.Lookup(name)
			cfg, err := scenario.Build(sp)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Workers = 1
			tb := core.BuildTables(cfg)
			want := stateHash(tb)
			var members []*core.Model
			for _, s := range []float64{1, 1.5, 0.5} {
				c := cfg
				c.Atm.OrographyScale = s
				c.Atm.Diff4 *= s
				members = append(members, newModel(t, c, tb))
			}
			for i := 0; i < 2*cfg.OceanEvery; i++ {
				for _, m := range members {
					m.Step()
				}
			}
			if got := stateHash(tb); got != want {
				t.Errorf("shared tables hash %s after the members stepped, %s before they were built", got, want)
			}
		})
	}
}

// TestTablesCheck pins the validation of mismatched table sets.
func TestTablesCheck(t *testing.T) {
	cfg := scenarioConfig(t, "r5-quick")
	other := scenarioConfig(t, "paper-foam")
	tb := core.BuildTables(cfg)
	if _, err := core.NewWithTables(other, tb); err == nil {
		t.Fatal("NewWithTables accepted tables built for a different resolution")
	}
	if cfg.TableKey() == other.TableKey() {
		t.Fatal("reduced and default configs share a table key")
	}
	cfg2 := scenarioConfig(t, "r5-quick")
	cfg2.OceanLag = 1
	cfg2.Workers = 4
	if cfg.TableKey() != cfg2.TableKey() {
		t.Fatal("scheduling fields leaked into the table key")
	}
}
