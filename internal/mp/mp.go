// Package mp is FOAM-Go's parallel-machine simulator: the stand-in for the
// IBM SP partitions (17-68 nodes) the paper ran on. A Machine is a fixed set
// of ranks, each carrying a virtual clock and the timeline of what the clock
// was spent on:
//
//   - Charge adds modeled compute time to a rank — the cost model's way of
//     giving it its share of a measured step;
//   - Deliver models one received message: stamped with the sender's clock,
//     it advances the receiver to max(own, stamp + latency + bytes/bandwidth)
//     and records the gap as idle;
//   - Alltoall and Halo are the cost model's two collective patterns,
//     expressed as the Delivers each rank would perform.
//
// The simulator is sequential. A rank's clock depends only on the order of
// its own operations and the stamps of the messages it receives, so replaying
// every rank's operations in any order that sends each message before it is
// received yields the timelines a concurrent message-passing run would. The
// maximum clock is then the wall time the program would have taken on a real
// distributed-memory machine with the given link, load imbalance and
// synchronization included — the quantity behind the paper's Figure 2 and
// Section 5.
package mp

// LinkParams models the point-to-point interconnect.
type LinkParams struct {
	// Latency is the per-message latency in seconds.
	Latency float64
	// Bandwidth is the link bandwidth in bytes per second.
	Bandwidth float64
}

// DefaultLink is a conservative contemporary interconnect: 5 microseconds of
// latency and 1 GB/s of bandwidth per link.
var DefaultLink = LinkParams{Latency: 5e-6, Bandwidth: 1e9}

// SPLink approximates the IBM SP2 high-performance switch of the paper's
// era: about 40 microseconds of latency and 35 MB/s per link.
var SPLink = LinkParams{Latency: 40e-6, Bandwidth: 35e6}

// Segment is one contiguous span of a rank's virtual timeline.
type Segment struct {
	Label string  // activity label, e.g. "atmosphere", "ocean", "coupler", "idle"
	Start float64 // virtual seconds
	End   float64 // virtual seconds
}

// rank is one simulated processor: its clock and what it was spent on.
type rank struct {
	clock    float64 // virtual seconds
	segments []Segment
}

// span advances the rank's clock to end, recording [clock, end) under label
// and merging with the previous segment when the label matches and the
// spans touch.
func (r *rank) span(label string, end float64) {
	start := r.clock
	r.clock = end
	if end <= start {
		return
	}
	if n := len(r.segments); n > 0 {
		last := &r.segments[n-1]
		if last.Label == label && last.End >= start-1e-12 {
			last.End = end
			return
		}
	}
	r.segments = append(r.segments, Segment{Label: label, Start: start, End: end})
}

// Machine is a simulated message-passing machine of Ranks() processors.
type Machine struct {
	link  LinkParams
	ranks []rank
}

// NewMachine creates a machine of n ranks joined by the given interconnect
// (a link without bandwidth means DefaultLink).
func NewMachine(n int, link LinkParams) *Machine {
	if !(link.Bandwidth > 0) {
		link = DefaultLink
	}
	return &Machine{link: link, ranks: make([]rank, n)}
}

// Ranks returns the number of ranks.
func (m *Machine) Ranks() int { return len(m.ranks) }

// Clock returns rank r's current virtual time in seconds.
func (m *Machine) Clock(r int) float64 { return m.ranks[r].clock }

// Segments returns rank r's virtual timeline.
func (m *Machine) Segments(r int) []Segment { return m.ranks[r].segments }

// Charge adds d virtual seconds of activity labelled label to rank r.
func (m *Machine) Charge(r int, label string, d float64) {
	if d < 0 {
		panic("mp: negative clock advance")
	}
	rk := &m.ranks[r]
	rk.span(label, rk.clock+d)
}

// Deliver models rank dst receiving a message of n float64s that its sender
// stamped with virtual time stamp (the sender's clock at the send; sends
// are eager and cost the sender nothing). The receiver waits, idle, until
// the message has crossed the link; a message that already arrived costs
// nothing.
func (m *Machine) Deliver(dst int, stamp float64, n int) {
	arrival := stamp + m.link.Latency + float64(8*n)/m.link.Bandwidth
	if rk := &m.ranks[dst]; arrival > rk.clock {
		rk.span("idle", arrival)
	}
}

// Alltoall models a personalized all-to-all exchange of n float64s per pair
// among the cnt contiguous ranks starting at first: every rank stamps its
// sends with its clock on entry, then receives from each peer in rank order.
func (m *Machine) Alltoall(first, cnt, n int) {
	stamps := make([]float64, cnt)
	for i := range stamps {
		stamps[i] = m.ranks[first+i].clock
	}
	for me := range stamps {
		for peer, stamp := range stamps {
			if peer != me {
				m.Deliver(first+me, stamp, n)
			}
		}
	}
}

// Halo models one nearest-neighbour exchange of n float64s each way along
// the chain of cnt contiguous ranks starting at first. Each rank first
// swaps with its lower neighbour, then with its upper one, stamping each
// send with its clock at that moment — so a late rank low in the chain
// delays everything above it, as a blocking sendrecv chain does.
func (m *Machine) Halo(first, cnt, n int) {
	var fromBelow float64 // stamp of the upward send of the rank below
	for r := first; r < first+cnt; r++ {
		if r > first {
			m.Deliver(r, fromBelow, n)
		}
		fromBelow = m.ranks[r].clock
		if r < first+cnt-1 {
			// The upper neighbour has not swapped yet: its clock is still
			// the stamp of its downward send.
			m.Deliver(r, m.ranks[r+1].clock, n)
		}
	}
}

// MaxClock returns the largest virtual clock over all ranks — the simulated
// parallel wall time of the program the machine ran.
func (m *Machine) MaxClock() float64 {
	t := 0.0
	for i := range m.ranks {
		if m.ranks[i].clock > t {
			t = m.ranks[i].clock
		}
	}
	return t
}

// TotalBusy sums the non-idle virtual time over all ranks, useful for
// computing parallel efficiency.
func (m *Machine) TotalBusy() float64 {
	tot := 0.0
	for i := range m.ranks {
		for _, s := range m.ranks[i].segments {
			if s.Label != "idle" {
				tot += s.End - s.Start
			}
		}
	}
	return tot
}
