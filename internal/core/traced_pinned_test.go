package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"foam/internal/mp"
)

// syntheticCosts is the pinned test's stand-in for the measured per-step
// costs: a fixed function of (tick, component, latitude row) in exact
// integer-valued arithmetic — no wall clock, no transcendental functions —
// laid out like the cost model's staging vectors. The ocean call is sized
// so that it keeps up with the atmosphere on some layouts and is the
// bottleneck on others, so both kinds of coupling wait are in the timeline.
func syntheticCosts(tick, ci, nlat int) []float64 {
	if ci == 1 {
		return []float64{float64(40+(tick*5)%17) * 1e-3}
	}
	c := make([]float64, 3+nlat)
	c[0] = float64(3+(tick*7)%5) * 1e-4  // per-row dynamics + moisture
	c[1] = float64(2+(tick*3)%4) * 2e-4  // replicated semi-implicit solve
	c[2] = float64(5+(tick*11)%7) * 4e-4 // coupler boundary work
	for j := 0; j < nlat; j++ {
		c[3+j] = float64(1+(tick*13+j*29)%23) * 1e-4 // physics row j
	}
	return c
}

// tracedTimeline returns every rank's segments and final clock for one
// simulated day of cfg replayed on the given layout with synthetic costs.
// Only the program and the cost model's configuration-derived sizes enter
// the timeline, so the model itself is never stepped.
func tracedTimeline(t *testing.T, cfg Config, spec ParallelSpec) (segs [][]mp.Segment, clocks []float64) {
	t.Helper()
	cfg.Workers = 1
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	rp := newReplay(m, spec)
	steps := int(86400 / m.cfg.Atm.Dt)
	for tick := 0; tick < steps; tick++ {
		rp.tick(tick, func(ci int) []float64 { return syntheticCosts(tick, ci, m.cfg.Atm.NLat) })
	}
	rp.shutdown()
	for r := 0; r < rp.mach.Ranks(); r++ {
		segs = append(segs, rp.mach.Segments(r))
		clocks = append(clocks, rp.mach.Clock(r))
	}
	return segs, clocks
}

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
				cfg := ReducedConfig()
				cfg.OceanLag = lag
				segs, clocks := tracedTimeline(t, cfg, ParallelSpec{AtmRanks: l[0], OcnRanks: l[1], Link: mp.SPLink})
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
