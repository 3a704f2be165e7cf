// Package mp provides the message-passing substrate that FOAM-Go uses in
// place of MPI. It implements the SPMD model of the paper — a fixed set of
// ranks, each with private state, exchanging typed messages — on top of
// goroutines and in-process mailboxes.
//
// Because the reproduction host may have fewer cores than the IBM SP
// partitions the paper ran on (17-68 nodes), mp also acts as a
// parallel-machine simulator. Every rank carries a virtual clock:
//
//   - real model steps run one rank at a time under a global exclusivity
//     token (Comm.Exclusive), and a cost model charges each rank its share
//     of the measured duration (Comm.AdvanceClock);
//   - a message is stamped with the sender's virtual time when sent, and a
//     matching receive advances the receiver's clock to
//     max(own, sender_time + latency + bytes/bandwidth), recording any gap
//     as idle time.
//
// The maximum virtual clock over all ranks is then the wall time the same
// program would have taken on a real distributed-memory machine with the
// given link parameters, including all load-imbalance and synchronization
// effects, which is exactly the quantity the paper's Figure 2 and Section 5
// report.
package mp

import (
	"fmt"
	"sync"
)

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

// message is an in-flight point-to-point message.
type message struct {
	src, tag int
	data     []float64
	sendTime float64 // sender's virtual clock at send
}

// mailbox holds undelivered messages for one rank.
type mailbox struct {
	//foam:guards msgs
	mu   sync.Mutex
	cond *sync.Cond
	msgs []message
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// procState is the per-process (world rank) accounting shared by every
// communicator handle of that rank. Only the owning goroutine touches it.
type procState struct {
	clock    float64 // virtual seconds
	segments []Segment
}

func (p *procState) addSegment(record bool, label string, start, end float64) {
	if !record || end <= start {
		return
	}
	// Merge with the previous segment when the label matches and spans touch.
	if n := len(p.segments); n > 0 {
		last := &p.segments[n-1]
		if last.Label == label && last.End >= start-1e-12 {
			last.End = end
			return
		}
	}
	p.segments = append(p.segments, Segment{Label: label, Start: start, End: end})
}

// World is a set of ranks that can communicate. It corresponds to
// MPI_COMM_WORLD.
type World struct {
	n      int
	link   LinkParams
	boxes  []*mailbox
	procs  []*procState
	token  chan struct{} // exclusivity token for real model steps
	record bool          // whether to record per-rank segment logs
}

// Option configures a World.
type Option func(*World)

// WithLink sets the interconnect parameters used by the virtual clock.
func WithLink(l LinkParams) Option { return func(w *World) { w.link = l } }

// WithoutTrace disables per-rank segment recording (slightly faster).
func WithoutTrace() Option { return func(w *World) { w.record = false } }

// NewWorld creates a world of n ranks.
func NewWorld(n int, opts ...Option) *World {
	if n <= 0 {
		panic(fmt.Sprintf("mp: world size %d must be positive", n))
	}
	w := &World{n: n, link: DefaultLink, record: true}
	for _, o := range opts {
		o(w)
	}
	w.boxes = make([]*mailbox, n)
	w.procs = make([]*procState, n)
	for i := range w.boxes {
		w.boxes[i] = newMailbox()
		w.procs[i] = &procState{}
	}
	w.token = make(chan struct{}, 1)
	w.token <- struct{}{}
	return w
}

// Size returns the number of ranks in the world.
func (w *World) Size() int { return w.n }

// Run executes body on every rank concurrently and returns the per-rank
// world communicators (carrying clocks and traces) after all ranks finish.
// A panic on any rank is re-raised on the caller with rank context.
func (w *World) Run(body func(c *Comm)) []*Comm {
	comms := make([]*Comm, w.n)
	for i := range comms {
		comms[i] = &Comm{world: w, rank: i, size: w.n, ranks: identity(w.n), proc: w.procs[i]}
	}
	var wg sync.WaitGroup
	panics := make([]any, w.n)
	for i := 0; i < w.n; i++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panics[r] = fmt.Errorf("mp: rank %d panicked: %v", r, p)
				}
			}()
			body(comms[r])
		}(i)
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	return comms
}

func identity(n int) []int {
	r := make([]int, n)
	for i := range r {
		r[i] = i
	}
	return r
}

// Comm is one rank's handle on a communicator: a subset of world ranks with
// contiguous local numbering, like an MPI communicator. All communicators of
// a process share its virtual clock and trace.
type Comm struct {
	world *World
	rank  int   // world rank of this process
	size  int   // size of this communicator
	ranks []int // world ranks of communicator members, indexed by local rank
	proc  *procState
}

// Rank returns the local rank within this communicator.
func (c *Comm) Rank() int {
	for i, r := range c.ranks {
		if r == c.rank {
			return i
		}
	}
	panic("mp: rank not a member of communicator")
}

// Size returns the number of ranks in this communicator.
func (c *Comm) Size() int { return c.size }

// WorldRank returns this process's rank in the world.
func (c *Comm) WorldRank() int { return c.rank }

// Clock returns the rank's current virtual time in seconds.
func (c *Comm) Clock() float64 { return c.proc.clock }

// AdvanceClock adds d virtual seconds of activity labelled label without
// timing anything: the cost model's way of charging a rank its share.
func (c *Comm) AdvanceClock(label string, d float64) {
	if d < 0 {
		panic("mp: negative clock advance")
	}
	c.proc.addSegment(c.world.record, label, c.proc.clock, c.proc.clock+d)
	c.proc.clock += d
}

// Segments returns the rank's virtual timeline.
func (c *Comm) Segments() []Segment { return c.proc.segments }

// Link returns the world's interconnect parameters.
func (c *Comm) Link() LinkParams { return c.world.link }

// Exclusive runs f under the world's exclusivity token without charging
// anything to the virtual clock. The traced ranked executor uses it to run
// real model steps one rank at a time — so the wall-clock cost traces the
// step records are not distorted by host-core contention — while the
// virtual time charged for the step comes from a cost model instead.
// Communication calls must not be made inside f.
func (c *Comm) Exclusive(f func()) {
	<-c.world.token
	defer func() { c.world.token <- struct{}{} }()
	f()
}

// Split creates a sub-communicator from the world ranks listed in members,
// which must include the calling rank and be identical on every caller.
// Local ranks follow the order of members.
func (c *Comm) Split(members []int) *Comm {
	cp := make([]int, len(members))
	copy(cp, members)
	return &Comm{world: c.world, rank: c.rank, size: len(cp), ranks: cp, proc: c.proc}
}

// Send delivers data to local rank dst with the given tag. The send is
// eager (buffered): it never blocks.
func (c *Comm) Send(dst, tag int, data []float64) {
	if dst < 0 || dst >= c.size {
		panic(fmt.Sprintf("mp: send to invalid rank %d of %d", dst, c.size))
	}
	cp := make([]float64, len(data))
	copy(cp, data)
	box := c.world.boxes[c.ranks[dst]]
	box.mu.Lock()
	box.msgs = append(box.msgs, message{src: c.rank, tag: tag, data: cp, sendTime: c.proc.clock})
	box.mu.Unlock()
	box.cond.Broadcast()
}

// Recv blocks until a message from local rank src with the given tag is
// available and returns its payload. The receiver's virtual clock advances
// to account for network transit and any waiting.
func (c *Comm) Recv(src, tag int) []float64 {
	if src < 0 || src >= c.size {
		panic(fmt.Sprintf("mp: recv from invalid rank %d of %d", src, c.size))
	}
	want := c.ranks[src]
	box := c.world.boxes[c.rank]
	box.mu.Lock()
	var m message
	for {
		found := -1
		for i, cand := range box.msgs {
			if cand.src == want && cand.tag == tag {
				found = i
				break
			}
		}
		if found >= 0 {
			m = box.msgs[found]
			box.msgs = append(box.msgs[:found], box.msgs[found+1:]...)
			break
		}
		box.cond.Wait()
	}
	box.mu.Unlock()

	arrival := m.sendTime + c.world.link.Latency + float64(8*len(m.data))/c.world.link.Bandwidth
	if arrival > c.proc.clock {
		c.proc.addSegment(c.world.record, "idle", c.proc.clock, arrival)
		c.proc.clock = arrival
	}
	return m.data
}

// Sendrecv exchanges messages with two (possibly equal) partners in one
// deadlock-free operation and returns the received payload.
func (c *Comm) Sendrecv(dst, sendTag int, data []float64, src, recvTag int) []float64 {
	c.Send(dst, sendTag, data)
	return c.Recv(src, recvTag)
}

// tagAll2All + sender rank tags Alltoall's messages, far below callers' tags.
const tagAll2All = -(5 << 20)

// Alltoall performs a personalized all-to-all exchange: send[i*chunk:(i+1)*chunk]
// goes to rank i, and the returned slice holds what each rank sent to the
// caller, in rank order. All chunks have equal length chunk.
func (c *Comm) Alltoall(send []float64, chunk int) []float64 {
	if len(send) != chunk*c.size {
		panic("mp: alltoall send length mismatch")
	}
	me := c.Rank()
	out := make([]float64, chunk*c.size)
	copy(out[me*chunk:], send[me*chunk:(me+1)*chunk])
	for r := 0; r < c.size; r++ {
		if r == me {
			continue
		}
		c.Send(r, tagAll2All+me, send[r*chunk:(r+1)*chunk])
	}
	for r := 0; r < c.size; r++ {
		if r == me {
			continue
		}
		part := c.Recv(r, tagAll2All+r)
		copy(out[r*chunk:], part)
	}
	return out
}

// MaxClock returns the largest virtual clock over the given communicators —
// the simulated parallel wall time of the program they ran.
func MaxClock(comms []*Comm) float64 {
	m := 0.0
	for _, c := range comms {
		if c.proc.clock > m {
			m = c.proc.clock
		}
	}
	return m
}

// TotalBusy sums the non-idle virtual time over all ranks, useful for
// computing parallel efficiency.
func TotalBusy(comms []*Comm) float64 {
	tot := 0.0
	for _, c := range comms {
		for _, s := range c.proc.segments {
			if s.Label != "idle" {
				tot += s.End - s.Start
			}
		}
	}
	return tot
}
