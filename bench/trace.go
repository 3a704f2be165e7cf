package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"
)

// span is one timed interval recorded by bench/ around a call into a layer.
// Spans are held in memory and written once at exit (-trace-out); nothing
// inside the program is instrumented.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for the root
	Name    string `json:"name"`
	Replay  int    `json:"replay"` // -1 outside the replay loop
	Op      int    `json:"op"`     // op index within the script, -1 outside ops
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer records nested spans on one goroutine. A nil tracer is the
// untraced run: begin and end are no-ops, so the same script serves both. A
// traced run also switches its tracer off for every other replay of the
// end-to-end block (see replay), which measures what tracing costs.
type tracer struct {
	t0     time.Time
	spans  []span
	stack  []int
	replay int
	op     int
	off    bool
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), replay: -1, op: -1, spans: make([]span, 0, 1<<14)}
}

func (t *tracer) begin(name string) int {
	if t == nil || t.off {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Replay: t.replay, Op: t.op})
	t.stack = append(t.stack, id)
	t.spans[id].StartNs = time.Since(t.t0).Nanoseconds()
	return id
}

func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	t.spans[id].EndNs = time.Since(t.t0).Nanoseconds()
	t.stack = t.stack[:len(t.stack)-1]
}

// at sets the replay and op index stamped on the spans that follow, and
// whether they are recorded at all.
func (t *tracer) at(replay, op int, on bool) {
	if t != nil {
		t.replay, t.op, t.off = replay, op, !on
	}
}

// layerFloors applies the floor rule to the spans recorded inside ops:
// durations of equal (replay, op, name) are summed, the minimum over replays
// is taken per (op, name), and the result is indexed [name][op]. calls
// counts the spans of each name in replay 1, the first with the tracer on
// for every op.
func layerFloors(spans []span, nOps int) (floors map[string][]int64, calls map[string]int) {
	type key struct {
		name       string
		replay, op int
	}
	sums := map[key]int64{}
	calls = map[string]int{}
	for _, s := range spans {
		if s.Op < 0 || s.Replay < 0 {
			continue
		}
		sums[key{s.Name, s.Replay, s.Op}] += s.EndNs - s.StartNs
		if s.Replay == 1 {
			calls[s.Name]++
		}
	}
	floors = map[string][]int64{}
	seen := map[string][]bool{}
	for k, d := range sums {
		if floors[k.name] == nil {
			floors[k.name] = make([]int64, nOps)
			seen[k.name] = make([]bool, nOps)
		}
		if !seen[k.name][k.op] || d < floors[k.name][k.op] {
			floors[k.name][k.op] = d
			seen[k.name][k.op] = true
		}
	}
	return floors, calls
}

// spanCost reports what tracing costs from first principles, beside the
// measured bench.trace_overhead that the host's noise usually drowns: the
// floor of one begin/end pair, and the spans one traced replay records.
func spanCost(res *result, tr *tracer, nOps int, blockFloorNs int64) {
	probe := newTracer()
	pair := minOf(20, func() {
		for i := 0; i < 1000; i++ {
			probe.end(probe.begin("probe"))
		}
	}) / 1000
	perBlock := 0
	for _, s := range tr.spans {
		if s.Replay == 1 && s.Op >= 0 && s.Op < nOps {
			perBlock++
		}
	}
	res.set("bench.span_ns", pair)
	res.set("bench.spans_per_block", float64(perBlock))
	res.notef("tracing cost computed: %d spans per block x %.0f ns = %.2g of the block floor", perBlock, pair, float64(perBlock)*pair/float64(blockFloorNs))
}

func sumInt(v []int64) int64 {
	var t int64
	for _, x := range v {
		t += x
	}
	return t
}

// medianPositive is the median of the non-zero entries of v: the per-call
// floor of a layer that runs in only some ops of the script.
func medianPositive(v []int64) float64 {
	var nz []int64
	for _, x := range v {
		if x > 0 {
			nz = append(nz, x)
		}
	}
	return medianInt(nz)
}

// medianWhere is the median of a layer's per-op floors over the ops of one
// class.
func medianWhere(v []int64, ops []opMeta, class string) float64 {
	var sel []int64
	for i, x := range v {
		if ops[i].class == class && x > 0 {
			sel = append(sel, x)
		}
	}
	return medianInt(sel)
}

// verifySpans checks a recorded trace: every span closed, every child
// nested inside its parent, exactly one root, and the self times (duration
// minus the children's durations) summing to the root span within 1%.
func verifySpans(spans []span) error {
	if len(spans) == 0 {
		return fmt.Errorf("trace: no spans")
	}
	childNs := make([]int64, len(spans))
	roots := 0
	for i, s := range spans {
		if s.ID != i {
			return fmt.Errorf("trace: span %d has id %d", i, s.ID)
		}
		if s.EndNs < s.StartNs || s.EndNs == 0 {
			return fmt.Errorf("trace: span %d (%s) never closed", s.ID, s.Name)
		}
		if s.Parent < 0 {
			roots++
			continue
		}
		if s.Parent >= i {
			return fmt.Errorf("trace: span %d (%s) has parent %d recorded after it", s.ID, s.Name, s.Parent)
		}
		p := spans[s.Parent]
		if s.StartNs < p.StartNs || s.EndNs > p.EndNs {
			return fmt.Errorf("trace: span %d (%s) [%d,%d] escapes parent %d (%s) [%d,%d]",
				s.ID, s.Name, s.StartNs, s.EndNs, p.ID, p.Name, p.StartNs, p.EndNs)
		}
		childNs[s.Parent] += s.EndNs - s.StartNs
	}
	if roots != 1 {
		return fmt.Errorf("trace: %d root spans, want 1", roots)
	}
	var self int64
	for i, s := range spans {
		d := s.EndNs - s.StartNs - childNs[i]
		if d < 0 {
			return fmt.Errorf("trace: children of span %d (%s) overlap: self time %d ns", s.ID, s.Name, d)
		}
		self += d
	}
	root := spans[0].EndNs - spans[0].StartNs
	if math.Abs(float64(self-root)) > 0.01*float64(root) {
		return fmt.Errorf("trace: self times sum to %d ns, root span is %d ns", self, root)
	}
	return nil
}

func writeSpans(path string, spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

func verifyTraceFile(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	var spans []span
	if err := json.Unmarshal(b, &spans); err != nil {
		return fmt.Errorf("trace: %s: %w", path, err)
	}
	return verifySpans(spans)
}
