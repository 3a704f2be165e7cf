package ocean

import (
	"testing"

	"foam/internal/pool"
)

// FuzzBlockRange checks the row-decomposition invariant of the phase driver
// for arbitrary domain sizes and worker counts: the pool's blocks of the
// NLat-2 interior rows, shifted by one as bindPhases does, must tile
// [1, nlat-1) exactly once, in order, with no gaps, overlaps, or
// out-of-range rows — the property the driver relies on for bit-identical
// parallel stepping.
func FuzzBlockRange(f *testing.F) {
	f.Add(32, 4)
	f.Add(128, 7)
	f.Add(4, 16) // more workers than interior rows
	f.Add(3, 1)
	f.Fuzz(func(t *testing.T, nlat, p int) {
		if nlat < 3 || nlat > 1<<20 || p < 1 || p > 1<<12 {
			t.Skip()
		}
		prev := 1
		for r := 0; r < p; r++ {
			lo, hi := pool.Block(nlat-2, r, p)
			j0, j1 := 1+lo, 1+hi
			if j0 != prev {
				t.Fatalf("nlat=%d p=%d r=%d: block starts at %d, want %d", nlat, p, r, j0, prev)
			}
			if j1 < j0 {
				t.Fatalf("nlat=%d p=%d r=%d: inverted block [%d,%d)", nlat, p, r, j0, j1)
			}
			if j0 < 1 || j1 > nlat-1 {
				t.Fatalf("nlat=%d p=%d r=%d: block [%d,%d) outside interior [1,%d)", nlat, p, r, j0, j1, nlat-1)
			}
			prev = j1
		}
		if prev != nlat-1 {
			t.Fatalf("nlat=%d p=%d: blocks end at %d, want %d", nlat, p, prev, nlat-1)
		}
	})
}
