package mp

import (
	"math"
	"testing"
)

func TestDeliverChargesIdleTime(t *testing.T) {
	m := NewMachine(2, LinkParams{Latency: 0.25, Bandwidth: 1e12})
	m.Charge(0, "work", 2.0)
	m.Deliver(1, m.Clock(0), 1)
	if math.Abs(m.Clock(1)-2.25) > 1e-9 {
		t.Fatalf("receiver clock = %v, want 2.25", m.Clock(1))
	}
	segs := m.Segments(1)
	if len(segs) != 1 || segs[0].Label != "idle" {
		t.Fatalf("expected a single idle segment, got %v", segs)
	}
	if math.Abs(segs[0].End-segs[0].Start-2.25) > 1e-9 {
		t.Fatalf("idle span %v, want 2.25", segs)
	}
}

func TestDeliverAlreadyArrivedIsFree(t *testing.T) {
	m := NewMachine(2, LinkParams{Latency: 0.25, Bandwidth: 1e12})
	m.Charge(1, "work", 5)
	m.Deliver(1, 1.0, 1) // arrived at 1.25, long before the receiver asks
	if m.Clock(1) != 5 || len(m.Segments(1)) != 1 {
		t.Fatalf("an early message moved the receiver: clock %v, segments %v", m.Clock(1), m.Segments(1))
	}
}

func TestBandwidthCost(t *testing.T) {
	m := NewMachine(2, LinkParams{Latency: 0, Bandwidth: 800})
	// 100 float64 = 800 bytes = 1 second at 800 B/s.
	m.Deliver(1, m.Clock(0), 100)
	if math.Abs(m.Clock(1)-1.0) > 1e-9 {
		t.Fatalf("receiver clock = %v, want 1.0", m.Clock(1))
	}
}

func TestZeroLinkMeansDefault(t *testing.T) {
	m := NewMachine(2, LinkParams{})
	m.Deliver(1, 0, 0)
	if m.Clock(1) != DefaultLink.Latency {
		t.Fatalf("receiver clock = %v, want the default link's latency %v", m.Clock(1), DefaultLink.Latency)
	}
}

func TestSegmentsMerge(t *testing.T) {
	m := NewMachine(1, DefaultLink)
	m.Charge(0, "a", 1)
	m.Charge(0, "a", 1)
	m.Charge(0, "b", 1)
	m.Charge(0, "b", 0) // empty spans leave no segment
	segs := m.Segments(0)
	if len(segs) != 2 {
		t.Fatalf("adjacent same-label segments should merge: %v", segs)
	}
	if segs[0].Label != "a" || segs[0].End != 2 || segs[1].Label != "b" {
		t.Fatalf("bad merged segments %v", segs)
	}
}

func TestMaxClockAndBusy(t *testing.T) {
	m := NewMachine(3, LinkParams{Latency: 1, Bandwidth: 1e12})
	for r := 0; r < 3; r++ {
		m.Charge(r, "w", float64(r+1))
	}
	m.Deliver(0, 1.5, 0) // rank 0 idles from 1 to 2.5: not busy time
	if got := m.MaxClock(); got != 3 {
		t.Fatalf("MaxClock=%v", got)
	}
	if got := m.TotalBusy(); got != 6 {
		t.Fatalf("TotalBusy=%v", got)
	}
}

func TestNegativeChargePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected a negative charge to panic")
		}
	}()
	NewMachine(1, DefaultLink).Charge(0, "w", -1)
}

// Hand-computed all-to-all: with 1 s per message, every rank ends at the
// latest *other* rank's entry clock plus 1 s, unless it was already later.
func TestAlltoallClocks(t *testing.T) {
	m := NewMachine(5, LinkParams{Latency: 1, Bandwidth: 1e12})
	m.Charge(0, "w", 9) // outside the group: must not be touched or consulted
	for r, d := range []float64{1, 5, 2, 8} {
		m.Charge(1+r, "w", d)
	}
	m.Alltoall(1, 4, 1)
	// Entry clocks 1, 5, 2, 8: the first three wait for the rank at 8, and
	// that one's latest peer entered at 5, so its messages are already in.
	want := []float64{9, 9, 9, 9, 8}
	for r, w := range want {
		if math.Abs(m.Clock(r)-w) > 1e-9 {
			t.Fatalf("rank %d clock %v, want %v", r, m.Clock(r), w)
		}
	}
	if segs := m.Segments(1); len(segs) != 2 || segs[1] != (Segment{Label: "idle", Start: 1, End: m.Clock(1)}) {
		t.Fatalf("rank 1 should wait in one idle segment from 1: %v", segs)
	}
	if len(m.Segments(4)) != 1 {
		t.Fatalf("the latest rank should not wait: %v", m.Segments(4))
	}
	// A one-rank group exchanges nothing.
	m.Alltoall(0, 1, 1)
	if m.Clock(0) != 9 {
		t.Fatalf("one-rank all-to-all moved the clock to %v", m.Clock(0))
	}
}

// Hand-computed two-neighbour halo on the chain of ranks 1, 2, 3, with 1 s
// per message. Rank 1 (at 0) swaps with rank 2 (at 4): 1 waits until 5, 2
// already has 1's message. Then rank 2 swaps with rank 3 (at 10): 2 waits
// until 11, and 3 — whose message from 2 was stamped 4 — does not wait.
func TestHaloClocks(t *testing.T) {
	m := NewMachine(4, LinkParams{Latency: 1, Bandwidth: 1e12})
	m.Charge(2, "w", 4)
	m.Charge(3, "w", 10)
	m.Halo(1, 3, 1) // ranks 1..3; rank 0 is outside the chain
	want := []float64{0, 5, 11, 10}
	for r, w := range want {
		if math.Abs(m.Clock(r)-w) > 1e-9 {
			t.Fatalf("rank %d clock %v, want %v", r, m.Clock(r), w)
		}
	}
	// A second round starts from those clocks (5, 11, 10): the middle
	// rank's wait now reaches both ends, which receive what it stamped at 11.
	m.Halo(1, 3, 1)
	want = []float64{0, 12, 11, 12}
	for r, w := range want {
		if math.Abs(m.Clock(r)-w) > 1e-9 {
			t.Fatalf("round 2: rank %d clock %v, want %v", r, m.Clock(r), w)
		}
	}
	// A one-rank chain has no neighbours.
	m.Halo(0, 1, 1)
	if m.Clock(0) != 0 {
		t.Fatalf("one-rank halo moved the clock to %v", m.Clock(0))
	}
}
