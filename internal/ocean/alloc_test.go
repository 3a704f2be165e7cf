package ocean

import (
	"fmt"
	"testing"

	"foam/internal/pool"
)

// warmModel builds pinned case tc under the pinned-trajectory forcing and
// spins it up two steps so every code path is warm.
func warmModel(tb testing.TB, tc pinnedCase, workers int) (*Model, *Forcing, *pool.Pool) {
	cfg := tc.cfg()
	m, err := New(cfg, tc.kmt(cfg))
	if err != nil {
		tb.Fatal(err)
	}
	p := pool.New(workers)
	m.SetPool(p)
	f := pinnedStart(m)
	m.Step(f)
	m.Step(f)
	return m, f, p
}

// TestStepAllocs is the ocean-only allocation gate, run over every pinned
// configuration serial and pooled. The coupled gate (TestCoupledStepAllocs)
// covers only the split ocean of the registry scenarios. The paper-earth
// case adds the paper's resolution, where row buffers sized by NLon or
// lazily grown per-worker scratch would show; the box cases add the
// branches no coupled scenario takes: the unsplit free surface
// (Split = false), the NoBiharmonic and NoMomentumAdvection ablations, and
// a shelf. It counts the total over two steps, not a per-step mean, which
// would truncate a single allocation away.
func TestStepAllocs(t *testing.T) {
	for _, tc := range pinnedCases {
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				if testing.Short() && tc.name == "paper-earth" {
					t.Skip("paper-resolution steps; skipped in -short")
				}
				m, f, p := warmModel(t, tc, workers)
				defer p.Close()
				if n := testing.AllocsPerRun(1, func() { m.Step(f); m.Step(f) }); n != 0 {
					t.Errorf("two ocean steps allocate %.0f times, want 0", n)
				}
			})
		}
	}
}

// BenchmarkStepPaper times one serial tracer step at paper resolution.
func BenchmarkStepPaper(b *testing.B) {
	m, f, _ := warmModel(b, pinnedCases[0], 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step(f)
	}
}
