package core_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"foam/internal/core"
	"foam/internal/mp"
)

// timelineHash is SHA-256 over every rank's (label, Start bits, End bits)
// segments followed by its final clock bits, in rank order.
func timelineHash(segs [][]mp.Segment, clocks []float64) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for r := range segs {
		put(uint64(len(segs[r])))
		for _, s := range segs[r] {
			put(uint64(len(s.Label)))
			h.Write([]byte(s.Label))
			put(math.Float64bits(s.Start))
			put(math.Float64bits(s.End))
		}
		put(math.Float64bits(clocks[r]))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTracedTimelinePinned pins the virtual-clock timelines behind Figure 2
// and the Section 5 throughput table bit-for-bit: for a deterministic cost
// input, every rank's segment list and final clock must hash to the
// recorded value — recorded from the goroutine-per-rank message-passing
// implementation the sequential machine replaced, in the commit that added
// this test. The layouts cover the 1-D atmosphere partition (4+1,
// 16+1), the 2-D one with two ocean ranks (32+2: plon = 2, one halo
// exchange pair) and a three-rank ocean halo chain with an interior rank
// (6+3), each under synchronous and lagged coupling. The hashes include the
// per-tick lead-to-member go-ahead message and the end-of-run shutdown
// message each group's lead sends its members.
func TestTracedTimelinePinned(t *testing.T) {
	want := map[string]string{
		"4+1/lag0":  "3f91206d640a08cb0cfcf76ea8e172a2627b73403253ddb478b0afc3f7d5823d",
		"16+1/lag0": "ada1bf91bc21ec8d8dc66c3a263f4d093b740efa99014fe0635767b0fdf3f5e5",
		"32+2/lag0": "314be09c67173e4c25e9e154ba291267e1de42ac6563bde91f44446eaa5c0e54",
		"6+3/lag0":  "608d996136cd0222910c36fe2f27de94492b8518f6d2f2af2228b66adbf85769",
		"4+1/lag1":  "b1a8f876eab7ee9e4920d8a36322f0889d02da4f26d9050cbe3a5cd7eaaac054",
		"16+1/lag1": "459af9b966c9d75b04244a75e5089d1dcc965ff917b28af170226caddde9c1d5",
		"32+2/lag1": "9628b7b7831ff3ff5a95fdb9f1afb53f8f2ffed67c656e56a59413ed6b1e1bfd",
		"6+3/lag1":  "2e6e486ba0cb3e72cdc61096000bcdbb77bc8dd303c9fb6b6c5a3ccb60f5ed7f",
	}
	for _, lag := range []int{0, 1} {
		for _, l := range [][2]int{{4, 1}, {16, 1}, {32, 2}, {6, 3}} {
			name := fmt.Sprintf("%d+%d/lag%d", l[0], l[1], lag)
			t.Run(name, func(t *testing.T) {
				cfg := scenarioConfig(t, "r5-quick")
				cfg.OceanLag = lag
				segs, clocks := core.TracedTimeline(t, cfg, core.ParallelSpec{AtmRanks: l[0], OcnRanks: l[1], Link: mp.SPLink})
				if len(segs) != l[0]+l[1] {
					t.Fatalf("%d rank timelines, want %d", len(segs), l[0]+l[1])
				}
				idle := false
				for _, s := range segs[len(segs)-1] {
					idle = idle || s.Label == "idle"
				}
				if !idle {
					t.Fatal("last ocean rank never waits; the synthetic costs no longer exercise coupling waits")
				}
				got := timelineHash(segs, clocks)
				if got != want[name] {
					t.Fatalf("timeline hash %s, want %s", got, want[name])
				}
			})
		}
	}
}

func TestTracedSpecValidation(t *testing.T) {
	if _, _, err := core.RunTraced(scenarioConfig(t, "r5-quick"), 0.01, core.ParallelSpec{AtmRanks: 0, OcnRanks: 1}); err == nil {
		t.Fatal("expected error for zero atmosphere ranks")
	}
	if _, _, err := core.RunTraced(scenarioConfig(t, "r5-quick"), 0.01, core.ParallelSpec{AtmRanks: 1, OcnRanks: 0}); err == nil {
		t.Fatal("expected error for zero ocean ranks")
	}
}

// The traced Figure-2 structure: with the default spec the trace must
// contain all four activity classes and the ocean ranks must show idle time
// (they wait for the atmosphere between coupling intervals).
func TestTracedFigure2Structure(t *testing.T) {
	res, _, err := core.RunTraced(scenarioConfig(t, "r5-quick"), 0.25,
		core.ParallelSpec{AtmRanks: 4, OcnRanks: 1, Link: mp.SPLink})
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
