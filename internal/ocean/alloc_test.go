package ocean

import (
	"testing"

	"foam/internal/pool"
)

// paperModel is the 128x128x16 ocean on the earth bathymetry under the
// pinned-trajectory forcing, spun up two steps so every code path is warm.
func paperModel(tb testing.TB, workers int) (*Model, *Forcing, *pool.Pool) {
	tc := pinnedCases[0]
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

// TestStepAllocsPaperResolution is the ocean-only allocation gate at the
// paper's resolution: the coupled gate (TestCoupledStepAllocs) only covers
// the reduced configuration, and row buffers sized by NLon or per-worker
// scratch that is lazily grown would show up only here. It counts the total
// over two steps, not a per-step mean, which would truncate a single
// allocation away.
func TestStepAllocsPaperResolution(t *testing.T) {
	if testing.Short() {
		t.Skip("ten paper-resolution steps; skipped in -short")
	}
	for _, workers := range []int{1, 3} {
		m, f, p := paperModel(t, workers)
		if n := testing.AllocsPerRun(1, func() { m.Step(f); m.Step(f) }); n != 0 {
			t.Errorf("workers=%d: two ocean steps allocate %.0f times, want 0", workers, n)
		}
		p.Close()
	}
}

// BenchmarkStepPaper times one serial tracer step at paper resolution.
func BenchmarkStepPaper(b *testing.B) {
	m, f, _ := paperModel(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step(f)
	}
}
