package mp

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestSendRecvBasic(t *testing.T) {
	w := NewWorld(2)
	var got []float64
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 7, []float64{1, 2, 3})
		} else {
			got = c.Recv(0, 7)
		}
	})
	if !reflect.DeepEqual(got, []float64{1, 2, 3}) {
		t.Fatalf("recv got %v", got)
	}
}

func TestSendCopiesPayload(t *testing.T) {
	w := NewWorld(2)
	var got []float64
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			buf := []float64{42}
			c.Send(1, 0, buf)
			buf[0] = -1 // must not affect the delivered message
			c.Send(1, 1, nil)
		} else {
			c.Recv(0, 1)
			got = c.Recv(0, 0)
		}
	})
	if got[0] != 42 {
		t.Fatalf("payload mutated after send: %v", got)
	}
}

func TestTagMatchingOutOfOrder(t *testing.T) {
	w := NewWorld(2)
	var first, second []float64
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, []float64{1})
			c.Send(1, 2, []float64{2})
		} else {
			second = c.Recv(0, 2) // request the later tag first
			first = c.Recv(0, 1)
		}
	})
	if first[0] != 1 || second[0] != 2 {
		t.Fatalf("tag matching broken: %v %v", first, second)
	}
}

func TestRecvChargesIdleTime(t *testing.T) {
	w := NewWorld(2, WithLink(LinkParams{Latency: 0.25, Bandwidth: 1e12}))
	comms := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.AdvanceClock("work", 2.0)
			c.Send(1, 0, []float64{1})
		} else {
			c.Recv(0, 0)
		}
	})
	r1 := comms[1]
	if math.Abs(r1.Clock()-2.25) > 1e-9 {
		t.Fatalf("receiver clock = %v, want 2.25", r1.Clock())
	}
	segs := r1.Segments()
	if len(segs) != 1 || segs[0].Label != "idle" {
		t.Fatalf("expected a single idle segment, got %v", segs)
	}
	if math.Abs(segs[0].End-segs[0].Start-2.25) > 1e-9 {
		t.Fatalf("idle span %v, want 2.25", segs)
	}
}

func TestBandwidthCost(t *testing.T) {
	w := NewWorld(2, WithLink(LinkParams{Latency: 0, Bandwidth: 800}))
	// 100 float64 = 800 bytes = 1 second at 800 B/s.
	comms := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, make([]float64, 100))
		} else {
			c.Recv(0, 0)
		}
	})
	if math.Abs(comms[1].Clock()-1.0) > 1e-9 {
		t.Fatalf("receiver clock = %v, want 1.0", comms[1].Clock())
	}
}

func TestAlltoallTransposeIdentity(t *testing.T) {
	// Alltoall applied twice with symmetric chunks is the identity on the
	// "matrix" whose (i,j) block holds data from i destined to j.
	n := 4
	chunk := 2
	w := NewWorld(n)
	results := make([][]float64, n)
	w.Run(func(c *Comm) {
		me := c.Rank()
		send := make([]float64, n*chunk)
		for j := 0; j < n; j++ {
			for k := 0; k < chunk; k++ {
				send[j*chunk+k] = float64(100*me + 10*j + k)
			}
		}
		got := c.Alltoall(send, chunk)
		results[me] = got
	})
	for me := 0; me < n; me++ {
		for j := 0; j < n; j++ {
			for k := 0; k < chunk; k++ {
				want := float64(100*j + 10*me + k)
				if results[me][j*chunk+k] != want {
					t.Fatalf("rank %d slot (%d,%d) = %v want %v",
						me, j, k, results[me][j*chunk+k], want)
				}
			}
		}
	}
}

func TestSplitSubCommunicator(t *testing.T) {
	w := NewWorld(5)
	// Ranks 1,3,4 form a subgroup; check local numbering and an exchange
	// addressed by local rank (the cost model's Split + Alltoall).
	results := make([][]float64, 5)
	w.Run(func(c *Comm) {
		me := c.Rank()
		if me == 1 || me == 3 || me == 4 {
			sub := c.Split([]int{1, 3, 4})
			if sub.Size() != 3 {
				t.Errorf("sub size %d", sub.Size())
			}
			v := float64(me)
			results[me] = sub.Alltoall([]float64{v, v, v}, 1)
		}
	})
	for _, r := range []int{1, 3, 4} {
		if !reflect.DeepEqual(results[r], []float64{1, 3, 4}) {
			t.Fatalf("sub alltoall on %d got %v want [1 3 4]", r, results[r])
		}
	}
}

func TestSplitSharesClock(t *testing.T) {
	w := NewWorld(2)
	comms := w.Run(func(c *Comm) {
		sub := c.Split([]int{0, 1})
		sub.AdvanceClock("work", 1.0)
		c.AdvanceClock("work", 0.5)
	})
	for _, c := range comms {
		if math.Abs(c.Clock()-1.5) > 1e-12 {
			t.Fatalf("clock not shared across split: %v", c.Clock())
		}
	}
}

func TestSegmentsMerge(t *testing.T) {
	w := NewWorld(1)
	comms := w.Run(func(c *Comm) {
		c.AdvanceClock("a", 1)
		c.AdvanceClock("a", 1)
		c.AdvanceClock("b", 1)
	})
	segs := comms[0].Segments()
	if len(segs) != 2 {
		t.Fatalf("adjacent same-label segments should merge: %v", segs)
	}
	if segs[0].Label != "a" || segs[0].End != 2 || segs[1].Label != "b" {
		t.Fatalf("bad merged segments %v", segs)
	}
}

func TestMaxClockAndBusy(t *testing.T) {
	w := NewWorld(3)
	comms := w.Run(func(c *Comm) {
		c.AdvanceClock("w", float64(c.Rank()+1))
	})
	if got := MaxClock(comms); got != 3 {
		t.Fatalf("MaxClock=%v", got)
	}
	if got := TotalBusy(comms); got != 6 {
		t.Fatalf("TotalBusy=%v", got)
	}
}

func TestRunPanicsArePropagated(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic to propagate")
		}
	}()
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 1 {
			panic("boom")
		}
	})
}

// Property: a ring halo exchange is deadlock-free and delivers each
// neighbour's payload for any ring size.
func TestRingExchangeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(9)
		w := NewWorld(n)
		ok := true
		w.Run(func(c *Comm) {
			me := c.Rank()
			right := (me + 1) % n
			left := (me - 1 + n) % n
			got := c.Sendrecv(right, 10, []float64{float64(me)}, left, 10)
			if int(got[0]) != left {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
