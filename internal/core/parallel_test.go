package core

import "testing"

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
