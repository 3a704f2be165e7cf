package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"foam/internal/core"
	"foam/internal/land"
	"foam/internal/scenario"
)

// restartCase is one scenario at one coupling lag, and its table set.
type restartCase struct {
	name string
	cfg  core.Config
	tb   *core.Tables
}

// restartCases are every r5 registry scenario at lag 0 and lag 1, plus
// paper-foam-lag1 at its own lag outside -short.
func restartCases(t *testing.T, lag int) []restartCase {
	t.Helper()
	var out []restartCase
	for _, sp := range scenario.All() {
		switch {
		case sp.Rung == "" || sp.Rung == "r5":
			sp.OceanLag = lag
		case sp.Name == "paper-foam-lag1" && sp.OceanLag == lag && !testing.Short():
		default:
			continue
		}
		cfg, err := scenario.Build(sp)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Workers = 1
		out = append(out, restartCase{sp.Name, cfg, core.BuildTables(cfg)})
	}
	return out
}

// sameBeforeRestore lists the checkpoint fields a scenario's two runs may
// share before the restore, each with the reason no trajectory of that
// scenario moves them. Every other field must differ, or a dropped restore
// of it would go unseen.
var sameBeforeRestore = map[string]map[string]string{
	"slab-ocean": reasons("the slab has no currents and no free surface",
		"Ocn.U", "Ocn.V", "Ocn.Eta", "Ocn.Ubt", "Ocn.Vbt"),
	"aquaplanet": reasons("the world has no land, so the river network routes nothing (the polar caps are land of the coupler's fallback only)",
		"RiverVol"),
	"adiabatic-core": reasons("no column physics: no moisture, radiation, surface exchange or flux accumulation ever runs",
		"Atm.Q", "Atm.QR", "Atm.SWDn", "Atm.LWDn", "Atm.Rain", "Atm.Snow", "Atm.ExTSurf", "Atm.ExAlbedo",
		"Atm.MeanPrecip", "Atm.MeanEvap", "LandT", "LandSnow", "RiverVol",
		"AccTauX", "AccTauY", "AccHeat", "AccFW", "AccRunoff", "AccSteps"),
}

func reasons(why string, fields ...string) map[string]string {
	m := make(map[string]string, len(fields))
	for _, f := range fields {
		m[f] = why
	}
	return m
}

// TestRestartLockstep restores the checkpoint of one run, A, into a model
// B that has run a different trajectory — not into a fresh model — at
// every phase offset of the coupling cadence, for every r5 registry
// scenario at both lags and paper-foam-lag1 outside -short (-short keeps
// the offsets 0, 1 and OceanEvery-1). A is a reference only, so one run
// per scenario and lag serves every offset (restartReference). B reaches
// its foreign state by stepping: from a perturbed temperature, seeded
// polar ice and overfull land buckets it steps past a radiation step and
// two coupling intervals, each begun with the ocean surface at -5 °C so
// the freeze clamp sets the ice flux, and stops one offset later than A.
// Before the restore every checkpoint field of A and B must differ
// (sameBeforeRestore excepted). After B.Restore(A.Checkpoint()), B's
// checkpoint must hash like A's — a field Restore drops keeps B's value —
// and after lcm(OceanEvery, RadiationEvery)+1 further steps of B its hash
// must equal A's at the same step — a field the trajectory reads but
// Checkpoint does not capture keeps B's value and diverges.
func TestRestartLockstep(t *testing.T) {
	for _, lag := range []int{0, 1} {
		cases := restartCases(t, lag)
		maxEvery := 0
		refs := make([]restartRef, len(cases))
		for i, c := range cases {
			maxEvery = max(maxEvery, c.cfg.OceanEvery)
			refs[i] = restartReference(t, c)
		}
		for off := 0; off < maxEvery; off++ {
			t.Run(fmt.Sprintf("lag%d/offset%d", lag, off), func(t *testing.T) {
				for i, c := range cases {
					if _, ok := refs[i].chk[off]; ok {
						t.Run(c.name, func(t *testing.T) { restartForeign(t, c, off, refs[i]) })
					}
				}
			})
		}
	}
}

// restartRef is what run A leaves for each offset it covers: its
// checkpoint after every+off steps and its state hash cycle+1 steps later.
type restartRef struct {
	chk  map[int]*core.Checkpoint
	hash map[int]string
}

// restartOffsets lists the coupling offsets TestRestartLockstep covers for
// a cadence of every steps.
func restartOffsets(every int) []int {
	var out []int
	for off := 0; off < every; off++ {
		if !testing.Short() || off <= 1 || off == every-1 {
			out = append(out, off)
		}
	}
	return out
}

// restartCycle is lcm(OceanEvery, RadiationEvery): the steps after which
// the op pattern and the radiation phase both repeat.
func restartCycle(cfg core.Config) int {
	every := cfg.OceanEvery
	return every / gcd(every, cfg.Atm.RadiationEvery) * cfg.Atm.RadiationEvery
}

// restartReference steps one run A of c through every offset: it records
// the checkpoint at step every+off and the state hash at step
// every+off+cycle+1.
func restartReference(t *testing.T, c restartCase) restartRef {
	every, cycle := c.cfg.OceanEvery, restartCycle(c.cfg)
	ref := restartRef{chk: map[int]*core.Checkpoint{}, hash: map[int]string{}}
	offs := restartOffsets(every)
	a := newModel(t, c.cfg, c.tb)
	for s := 1; s <= every+offs[len(offs)-1]+cycle+1; s++ {
		a.Step()
		for _, off := range offs {
			switch s {
			case every + off:
				ref.chk[off] = a.Checkpoint()
			case every + off + cycle + 1:
				ref.hash[off] = stateHash(a.Checkpoint())
			}
		}
	}
	return ref
}

func restartForeign(t *testing.T, c restartCase, off int, ref restartRef) {
	every, cycle := c.cfg.OceanEvery, restartCycle(c.cfg)
	b := newModel(t, c.cfg, c.tb)
	perturbTemperature(t, b, rand.New(rand.NewSource(int64(off)+1)))
	seedIce(b)
	editState(t, b, func(cp *core.Checkpoint) {
		for i := range cp.LandWater {
			if b.Cpl.Land.IsLand(i) {
				cp.LandWater[i] = 2 * land.BucketCapacity
			}
		}
	})
	mask := b.Ocn.Mask()
	for s := 0; s < max(cycle, 2*every)+off+1; s++ {
		if s%every == 0 {
			editState(t, b, func(cp *core.Checkpoint) {
				for i := range cp.Ocn.T[0] {
					if mask[i] > 0.5 {
						cp.Ocn.T[0][i] = -5
					}
				}
			})
		}
		b.Step()
	}

	chkA := ref.chk[off]
	same := sameBeforeRestore[c.name]
	for _, fd := range fieldDistances(chkA, b.Checkpoint()) {
		if reason, ok := same[fd.name]; ok {
			if fd.d != 0 {
				t.Errorf("%s differs between the runs, but is listed as equal: %s", fd.name, reason)
			}
		} else if fd.d == 0 {
			t.Errorf("%s is equal in both runs before the restore, so a dropped restore of it would pass", fd.name)
		}
	}
	if t.Failed() {
		return
	}

	if err := b.Restore(chkA); err != nil {
		t.Fatal(err)
	}
	if got, want := stateHash(b.Checkpoint()), stateHash(chkA); got != want {
		t.Fatalf("restored state hashes %s, checkpoint %s: Restore left part of the foreign state", got, want)
	}

	for s := 0; s <= cycle; s++ {
		b.Step()
	}
	if got, want := stateHash(b.Checkpoint()), ref.hash[off]; got != want {
		t.Fatalf("%d steps after the restore the state hashes %s, the original run %s: Checkpoint misses state the trajectory reads", cycle+1, got, want)
	}
}

// editState applies edit to m's state through a checkpoint round trip.
func editState(t *testing.T, m *core.Model, edit func(*core.Checkpoint)) {
	t.Helper()
	cp := m.Checkpoint()
	edit(cp)
	if err := m.Restore(cp); err != nil {
		t.Fatal(err)
	}
}

func newModel(t *testing.T, cfg core.Config, tb *core.Tables) *core.Model {
	t.Helper()
	m, err := core.NewWithTables(cfg, tb)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
