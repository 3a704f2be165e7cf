package atmos

import (
	"fmt"
	"testing"

	"foam/internal/pool"
)

// paperModel is the 18-level full-physics atmosphere at truncation R(m) over
// the uniform ocean, from the pinned-trajectory start, stepped past the
// leapfrog startup and one radiation step so every code path is warm.
func paperModel(tb testing.TB, m, workers int, physics PhysicsVersion) (*Model, *pool.Pool) {
	mod := atmosPinnedStart(tb, atmosPinnedCase{m: m, nlev: 18, physics: physics})
	p := pool.New(workers)
	mod.SetPool(p)
	for s := 0; s < 4; s++ {
		mod.Step()
	}
	return mod, p
}

// TestStepAllocsPaperResolution is the atmosphere-only allocation gate at
// the paper's R15 and at the R21 rung, for each physics version: the
// coupled gate (TestCoupledStepAllocs) covers the r5 rung and, outside
// -short, R15. It counts the total over two whole radiation cycles
// (RadiationEvery = 3 here), not a per-step mean, which would truncate an
// allocation on the radiation step away.
func TestStepAllocsPaperResolution(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-resolution steps; skipped in -short")
	}
	for _, physics := range []PhysicsVersion{PhysicsCCM2, PhysicsCCM3} {
		for _, m := range []int{15, 21} {
			for _, workers := range []int{1, 3} {
				mod, p := paperModel(t, m, workers, physics)
				steps := 2 * mod.cfg.RadiationEvery
				n := testing.AllocsPerRun(1, func() {
					for i := 0; i < steps; i++ {
						mod.Step()
					}
				})
				if n != 0 {
					t.Errorf("%v R%d workers=%d: %d atmosphere steps allocate %.0f times, want 0", physics, m, workers, steps, n)
				}
				p.Close()
			}
		}
	}
}

// BenchmarkStepPaper times one serial full-physics step at R15 and R21.
func BenchmarkStepPaper(b *testing.B) {
	for _, m := range []int{15, 21} {
		b.Run(fmt.Sprintf("R%d", m), func(b *testing.B) {
			mod, _ := paperModel(b, m, 1, PhysicsCCM3)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mod.Step()
			}
		})
	}
}
