package main

import (
	"math"
	"testing"
)

// synthetic builds samples whose true op costs are cost[i], with one-sided
// noise added to every sample except one clean replay per op.
func synthetic(ops []opMeta, cost []int64, replays int, seed uint64) *samples {
	r := rng(seed)
	s := &samples{ops: ops}
	for k := 0; k < replays; k++ {
		row := make([]int64, len(ops))
		for i := range row {
			row[i] = cost[i]
			if (k+i)%replays != 0 { // every op keeps exactly one clean replay
				row[i] += int64(r.uniform(0, 0.6) * float64(cost[i]))
			}
		}
		s.t = append(s.t, row)
	}
	return s
}

func TestFloorRecoversCostUnderOneSidedNoise(t *testing.T) {
	ops := []opMeta{
		{kind: "restore", group: -1},
		{kind: "advance", class: "radiation", group: 0},
		{kind: "advance", class: "plain", group: 0},
		{kind: "advance", class: "couple", group: 0},
		{kind: "advance", class: "plain", group: 1},
		{kind: "advance", class: "couple", group: 1},
		{kind: "save", group: -1},
		{kind: "save", group: -1},
		{kind: "save", group: -1},
	}
	cost := []int64{1800, 4000, 2700, 9000, 2700, 9100, 1700, 1700, 1700}
	s := synthetic(ops, cost, 12, 7)

	for i, f := range s.floors() {
		if f != cost[i] {
			t.Errorf("floor[%d] = %d, want the true cost %d", i, f, cost[i])
		}
	}
	if got, want := s.blockFloor(), sumInt(cost); got != want {
		t.Errorf("block floor = %d, want %d", got, want)
	}
	// The raw median does not recover the cost; that is why it is not the estimator.
	if med := quantileInt(s.rawBlocks(), 0.5); med <= 1.05*float64(sumInt(cost)) {
		t.Errorf("raw block median %.0f is suspiciously close to the floor %d; the noise model is broken", med, sumInt(cost))
	}
	if nr := s.noiseRatio(); nr <= 1 {
		t.Errorf("noise ratio = %v, want > 1 under added noise", nr)
	}

	// Composite op: the ticks of one coupling interval sum to one unit.
	if got, want := s.kindFloor("advance"), 0.5*float64(4000+2700+9000+2700+9100); math.Abs(got-want) > 1e-9 {
		t.Errorf("advance (median of interval floors) = %v, want %v", got, want)
	}
	if got := s.kindFloorSum("advance"); got != 4000+2700+9000+2700+9100 {
		t.Errorf("advance floor sum = %d", got)
	}
	// Tick classes ignore the grouping.
	if got := s.opFloor("advance", "couple"); math.Abs(got-9050) > 1e-9 {
		t.Errorf("couple tick floor = %v, want 9050", got)
	}
	if got := s.kindFloor("save"); math.Abs(got-1700) > 1e-9 {
		t.Errorf("save = %v, want 1700", got)
	}
	if got := s.kindFloor("fork"); got != 0 {
		t.Errorf("absent kind = %v, want 0", got)
	}
}

func TestFloorSupport(t *testing.T) {
	ops := []opMeta{{kind: "a", group: -1}, {kind: "b", group: -1}}
	s := &samples{ops: ops, t: [][]int64{{100, 100}, {101, 150}, {130, 160}}}
	// Op 0 has two samples within 2% of its floor, op 1 only one.
	if got := s.floorSupport(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("floor support = %v, want 0.5", got)
	}
}

func TestQuantiles(t *testing.T) {
	v := []int64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	if got := quantileInt(v, 0.5); got != 5 {
		t.Errorf("p50 = %v, want 5 (nearest rank)", got)
	}
	if got := quantileInt(v, 0.9); got != 9 {
		t.Errorf("p90 = %v, want 9", got)
	}
	if got := medianInt(v); math.Abs(got-5.5) > 1e-12 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := medianPositive([]int64{0, 4, 0, 2, 9}); got != 4 {
		t.Errorf("median of positives = %v, want 4", got)
	}
}
