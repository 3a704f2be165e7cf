package main

import (
	"fmt"
	"math"
	"runtime"
	"time"
)

// op is one timed step of a block script.
type op struct {
	opMeta
	run func() error
}

// budget bounds one replay loop: replay until seconds have passed, but at
// least minR and at most maxR times. Blocks are never shortened; a slower
// program or host gets fewer replays, never fewer than minR.
type budget struct {
	seconds    float64
	minR, maxR int
}

// tally counts operations attempted and failed. A failed op is a returned
// error (non-2xx reply, rejected request), a recovered panic, a non-finite
// or out-of-range field, or a determinism mismatch between replays.
type tally struct {
	attempted, failed int
	failures          []string
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.failures) < 8 {
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
}

// check counts one verification and records its failure, if any.
func (t *tally) check(err error) {
	t.attempted++
	if err != nil {
		t.fail("%v", err)
	}
}

// safely runs fn, turning a panic inside the program into an error so one
// blown-up op is counted instead of ending the measurement.
func safely(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return fn()
}

// traced is the budget of a traced run's replay loop, whose block is the
// end-to-end block plus the layer-by-layer reference block: most of the
// seconds (the stand-alone timings need the rest) and a third of the
// replays, at least 2.
func (b budget) traced() budget {
	min := b.minR / 3
	if min < 2 {
		min = 2
	}
	return budget{seconds: 0.8 * b.seconds, minR: min, maxR: b.maxR}
}

// hooks run untimed around every replay: before for counters, after for the
// correctness checks.
type hooks struct {
	before, after func(r int)
}

// andAfter returns h with fn appended to its after hook.
func (h hooks) andAfter(fn func(r int)) hooks {
	prev := h.after
	h.after = func(r int) {
		if prev != nil {
			prev(r)
		}
		fn(r)
	}
	return h
}

// sameEnd is the determinism check: every replay must end in the state
// (hash) the first one ended in.
type sameEnd struct{ first uint64 }

func (d *sameEnd) check(tl *tally, r int, h uint64) {
	var err error
	if r == 0 {
		d.first = h
	} else if h != d.first {
		err = fmt.Errorf("replay %d ended in state %016x, replay 0 in %016x", r, h, d.first)
	}
	tl.check(err)
}

// replay runs script repeatedly under the budget, timing every op. With a
// tracer, every replay and op is also a span, and ops may record child spans
// around their calls into the layers; the tracer is switched off on even
// replays for every op not marked always, so the traced and untraced floors
// of the same ops come from one interleaved loop.
func replay(script []op, b budget, tr *tracer, tl *tally, h hooks) *samples {
	s := &samples{ops: make([]opMeta, len(script))}
	names := make([]string, len(script))
	for i, o := range script {
		s.ops[i] = o.opMeta
		names[i] = "op." + o.kind
	}
	start := time.Now()
	for r := 0; r < b.maxR; r++ {
		if r >= b.minR && time.Since(start).Seconds() >= b.seconds {
			break
		}
		row := make([]int64, len(script))
		if h.before != nil {
			h.before(r)
		}
		tr.at(r, -1, true)
		rid := tr.begin("replay")
		for i, o := range script {
			tr.at(r, i, o.always || r%2 == 1)
			id := tr.begin(names[i])
			t0 := time.Now()
			err := safely(o.run)
			row[i] = time.Since(t0).Nanoseconds()
			tr.end(id)
			tl.attempted++
			if err != nil {
				tl.fail("replay %d op %d (%s): %v", r, i, o.kind, err)
			}
		}
		tr.at(r, -1, true)
		if h.after != nil {
			h.after(r)
		}
		tr.end(rid)
		s.t = append(s.t, row)
	}
	tr.at(-1, -1, true)
	return s
}

// coldSetup times one more cold construction (runtime.GC first, so each
// starts from a collected heap) and appends its seconds to prior; setup_s is
// the minimum over the run's constructions.
func coldSetup(build func() error, tl *tally, prior []float64) []float64 {
	runtime.GC()
	t0 := time.Now()
	err := safely(build)
	d := time.Since(t0).Seconds()
	tl.attempted++
	if err != nil {
		tl.fail("set-up: %v", err)
	}
	return append(prior, d)
}

// minOf times fn n times and returns the minimum in nanoseconds: the
// stand-alone layer timings of the traced run (kernels, set-up parts).
func minOf(n int, fn func()) float64 {
	best := math.Inf(1)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		fn()
		best = math.Min(best, float64(time.Since(t0).Nanoseconds()))
	}
	return best
}

const (
	nsPerMs = 1e6
	nsPerUs = 1e3
	nsPerS  = 1e9
)
