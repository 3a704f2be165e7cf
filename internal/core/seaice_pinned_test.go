package core_test

import (
	"fmt"
	"math"
	"testing"

	"foam/internal/core"
)

// seedIce lays 1.5 m of ice at 260 K over every wet ocean cell poleward of
// 55 degrees and reports which cells it seeded. No registry scenario forms
// ice in its first week, so a test that needs ice puts it there.
func seedIce(m *core.Model) []bool {
	g, mask, ice := m.Ocn.Grid(), m.Ocn.Mask(), m.Cpl.Ice
	seeded := make([]bool, g.Size())
	for j := 0; j < g.NLat(); j++ {
		if math.Abs(g.Lats[j]) < 55*math.Pi/180 {
			continue
		}
		for i := 0; i < g.NLon(); i++ {
			if c := g.Index(j, i); mask[c] > 0.5 {
				ice.Thick[c], ice.TSurf[c] = 1.5, 260
				seeded[c] = true
			}
		}
	}
	return seeded
}

// TestSeaIceDriftPinned drives the coupled sea-ice path: thermodynamics
// over a warmer ocean (basal melt), the ice stress and melt water handed
// to the ocean, and the drift with the imported surface currents. r5-quick
// runs one day plus two steps from seeded polar ice, is checkpointed
// mid-interval, and a fresh model restored from that checkpoint must stay
// in lockstep with it for one more day. The end state is pinned, serial
// and pooled alike.
func TestSeaIceDriftPinned(t *testing.T) {
	const want = "77dcb09660b138c8f578d00afb9900fa963586f41e91213947a961b9b87597de"
	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			m := buildScenario(t, "r5-quick", workers)
			seeded := seedIce(m)
			m.StepDays(1)
			m.Step()
			m.Step()

			ice := m.Cpl.Ice
			if cov := ice.Coverage(); cov <= 0 {
				t.Fatalf("ice coverage %g after a day, want > 0", cov)
			}
			u, v := m.Ocn.SurfaceCurrents()
			var under float64
			drifted := 0
			for c, th := range ice.Thick {
				if ice.Present(c) {
					under = math.Max(under, math.Hypot(u[c], v[c]))
				}
				if th > 0 && !seeded[c] {
					drifted++ // only the drift reaches an unseeded cell
				}
			}
			if under <= 0 {
				t.Fatal("no surface current under the ice")
			}
			if drifted == 0 {
				t.Fatal("no ice drifted out of the seeded cells")
			}

			r := buildScenario(t, "r5-quick", workers)
			if err := r.Restore(m.Checkpoint()); err != nil {
				t.Fatal(err)
			}
			m.StepDays(1)
			r.StepDays(1)
			got, restarted := stateHash(m.Checkpoint()), stateHash(r.Checkpoint())
			if restarted != got {
				t.Errorf("restarted run diverged: state hash %s, straight run %s", restarted, got)
			}
			if got != want {
				t.Errorf("state hash %s, pinned %s", got, want)
			}
		})
	}
}
