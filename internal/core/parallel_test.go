package core

import (
	"testing"

	"foam/internal/mp"
)

func TestAtmPartitionShapes(t *testing.T) {
	nlat := 40 // R15: 20 latitude pairs
	cases := []struct {
		p        int
		wantPlat int
	}{
		{1, 1}, {4, 4}, {8, 8}, {16, 16}, {20, 20},
		{32, 16}, // 20 pairs cannot feed 32 1-D ranks: 16x2
		{64, 16}, // 16x4
	}
	for _, c := range cases {
		plat, plon := atmPartition(c.p, nlat)
		if plat*plon != c.p {
			t.Fatalf("p=%d: %dx%d does not cover the ranks", c.p, plat, plon)
		}
		if plat > nlat/2 {
			t.Fatalf("p=%d: plat %d exceeds the latitude pairs", c.p, plat)
		}
		if plat != c.wantPlat {
			t.Fatalf("p=%d: plat=%d want %d", c.p, plat, c.wantPlat)
		}
	}
}

func TestTracedSpecValidation(t *testing.T) {
	if _, _, err := RunTraced(ReducedConfig(), 0.01, ParallelSpec{AtmRanks: 0, OcnRanks: 1}); err == nil {
		t.Fatal("expected error for zero atmosphere ranks")
	}
	if _, _, err := RunTraced(ReducedConfig(), 0.01, ParallelSpec{AtmRanks: 1, OcnRanks: 0}); err == nil {
		t.Fatal("expected error for zero ocean ranks")
	}
}

// The traced Figure-2 structure: with the default spec the trace must
// contain all four activity classes and the ocean ranks must show idle time
// (they wait for the atmosphere between coupling intervals).
func TestTracedFigure2Structure(t *testing.T) {
	res, _, err := RunTraced(ReducedConfig(), 0.25,
		ParallelSpec{AtmRanks: 4, OcnRanks: 1, Link: mp.SPLink})
	if err != nil {
		t.Fatal(err)
	}
	labels := map[string]bool{}
	for r := 0; r < res.Machine.Ranks(); r++ {
		for _, s := range res.Machine.Segments(r) {
			labels[s.Label] = true
		}
	}
	for _, want := range []string{"atmosphere", "coupler", "ocean", "idle"} {
		if !labels[want] {
			t.Fatalf("trace missing %q segments (got %v)", want, labels)
		}
	}
	// The ocean rank (last) must have idle gaps.
	var idle float64
	for _, s := range res.Machine.Segments(res.Machine.Ranks() - 1) {
		if s.Label == "idle" {
			idle += s.End - s.Start
		}
	}
	if idle <= 0 {
		t.Fatal("ocean rank shows no waiting, which cannot be right")
	}
}
