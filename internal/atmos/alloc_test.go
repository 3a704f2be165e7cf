package atmos

import (
	"fmt"
	"testing"

	"foam/internal/pool"
)

// paperModel is the 18-level full-physics atmosphere at truncation R(m) over
// the uniform ocean, from the pinned-trajectory start, stepped past the
// leapfrog startup and one radiation step so every code path is warm.
func paperModel(tb testing.TB, m, workers int) (*Model, *pool.Pool) {
	mod := atmosPinnedStart(tb, atmosPinnedCase{m: m, nlev: 18, physics: PhysicsCCM3})
	p := pool.New(workers)
	mod.SetPool(p)
	for s := 0; s < 4; s++ {
		mod.Step()
	}
	return mod, p
}

// TestStepAllocsPaperResolution is the atmosphere-only allocation gate at
// the paper's R15 and at the R21 rung: the coupled gate
// (TestCoupledStepAllocs) only covers the reduced configuration. The window
// of three steps contains a radiation step (RadiationEvery = 3).
func TestStepAllocsPaperResolution(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-resolution steps; skipped in -short")
	}
	for _, m := range []int{15, 21} {
		for _, workers := range []int{1, 3} {
			mod, p := paperModel(t, m, workers)
			if n := testing.AllocsPerRun(3, mod.Step); n != 0 {
				t.Errorf("R%d workers=%d: atmosphere step allocates %.1f times, want 0", m, workers, n)
			}
			p.Close()
		}
	}
}

// BenchmarkStepPaper times one serial full-physics step at R15 and R21.
func BenchmarkStepPaper(b *testing.B) {
	for _, m := range []int{15, 21} {
		b.Run(fmt.Sprintf("R%d", m), func(b *testing.B) {
			mod, _ := paperModel(b, m, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mod.Step()
			}
		})
	}
}
