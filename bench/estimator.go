package main

import (
	"math"
	"sort"
)

// The replay-floor estimator. A block is a fixed op script replayed R times
// from the same restored state, so op i is bit-identical work in every
// replay and t[r][i] differs between replays only by what the host added:
// preemption on a shared vCPU, cache pollution, GC. All of that is
// one-sided, so floor_i = min_r t[r][i] is the estimate that repeats, and
// the block floor is the sum of the op floors. Raw medians and p90s are
// reported beside the floors (ungated) so what the minimum hides stays
// visible; see README.md for the measured spreads behind this choice.

// opMeta describes one op of a script: its kind (the latency metric it
// feeds), an optional class (the per-layer split of a kind), and an optional
// group — ops sharing a non-negative group form one composite op, e.g. the
// ticks of one coupling interval. An always op keeps the tracer on in every
// replay of a traced run (the layer-by-layer reference ops).
type opMeta struct {
	kind   string
	class  string
	group  int
	always bool
}

// samples holds the wall time in nanoseconds of every op of every replay.
type samples struct {
	ops []opMeta
	t   [][]int64 // [replay][op]
}

// pick returns the samples of ops [lo, hi) over the replays keep selects:
// a traced run times its end-to-end block and its reference block in one
// loop and alternates the tracer, then reads each part by itself.
func (s *samples) pick(lo, hi int, keep func(r int) bool) *samples {
	out := &samples{ops: s.ops[lo:hi]}
	for r, row := range s.t {
		if keep(r) {
			out.t = append(out.t, row[lo:hi])
		}
	}
	return out
}

func allReplays(int) bool    { return true }
func evenReplays(r int) bool { return r%2 == 0 }
func oddReplays(r int) bool  { return r%2 == 1 }

// floors returns the per-op minimum over replays.
func (s *samples) floors() []int64 {
	fl := make([]int64, len(s.ops))
	for i := range fl {
		fl[i] = math.MaxInt64
		for _, row := range s.t {
			if row[i] < fl[i] {
				fl[i] = row[i]
			}
		}
	}
	return fl
}

// blockFloor is the sum of the op floors: the block's cost with the
// interference of every replay removed op by op.
func (s *samples) blockFloor() int64 { return sumInt(s.floors()) }

// rawBlocks returns each replay's total as measured.
func (s *samples) rawBlocks() []int64 {
	out := make([]int64, len(s.t))
	for r, row := range s.t {
		out[r] = sumInt(row)
	}
	return out
}

// noiseRatio is the mean raw block over the block floor (>= 1): how much
// time the host, the GC and cache misses added to the work on average.
func (s *samples) noiseRatio() float64 {
	var tot int64
	for _, b := range s.rawBlocks() {
		tot += b
	}
	return float64(tot) / float64(len(s.t)) / float64(s.blockFloor())
}

// floorSupport is the share of op indices whose floor is corroborated: at
// least two replays landed within 2% of it. A low value means the floors
// are single lucky samples and R is too small for this host.
func (s *samples) floorSupport() float64 {
	fl := s.floors()
	ok := 0
	for i, f := range fl {
		near := 0
		for _, row := range s.t {
			if float64(row[i]) <= 1.02*float64(f) {
				near++
			}
		}
		if near >= 2 {
			ok++
		}
	}
	return float64(ok) / float64(len(fl))
}

// units returns, for one kind, the floor and the raw samples of every unit
// of that kind: a unit is a single op, or all ops of one group summed.
func (s *samples) units(kind string) (floors []int64, raw []int64) {
	fl := s.floors()
	groupAt := map[int]int{} // group id -> unit index
	var members [][]int
	for i, op := range s.ops {
		if op.kind != kind {
			continue
		}
		if op.group < 0 {
			members = append(members, []int{i})
			continue
		}
		u, seen := groupAt[op.group]
		if !seen {
			u = len(members)
			groupAt[op.group] = u
			members = append(members, nil)
		}
		members[u] = append(members[u], i)
	}
	for _, idx := range members {
		var f int64
		for _, i := range idx {
			f += fl[i]
		}
		floors = append(floors, f)
		for _, row := range s.t {
			var x int64
			for _, i := range idx {
				x += row[i]
			}
			raw = append(raw, x)
		}
	}
	return floors, raw
}

// kindFloor is a latency metric: the median over a kind's units of their
// floors, in nanoseconds (0 when the script has no such op).
func (s *samples) kindFloor(kind string) float64 {
	fl, _ := s.units(kind)
	return medianInt(fl)
}

// opFloor is the median floor of the single ops of a kind and class, groups
// ignored: the per-tick cost of one tick class.
func (s *samples) opFloor(kind, class string) float64 {
	var sel []int64
	for i, f := range s.floors() {
		if s.ops[i].kind == kind && s.ops[i].class == class {
			sel = append(sel, f)
		}
	}
	return medianInt(sel)
}

// kindFloorSum is the total floor of a kind within one block.
func (s *samples) kindFloorSum(kind string) int64 {
	fl, _ := s.units(kind)
	return sumInt(fl)
}

func medianInt(v []int64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := append([]int64(nil), v...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	n := len(c)
	if n%2 == 1 {
		return float64(c[n/2])
	}
	return 0.5 * (float64(c[n/2-1]) + float64(c[n/2]))
}

// quantileInt is the nearest-rank quantile of v (0 when empty).
func quantileInt(v []int64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := append([]int64(nil), v...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	i := int(math.Ceil(q*float64(len(c)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(c[i])
}

func minFloat(v []float64) float64 {
	m := math.Inf(1)
	for _, x := range v {
		m = math.Min(m, x)
	}
	return m
}

func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return 0.5 * (c[n/2-1] + c[n/2])
}
