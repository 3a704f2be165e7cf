package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// metricDef names one metric; BENCHMARK.json lists the same names, units,
// directions and bounds (metrics_test.go keeps the two in step).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // relative worsening that counts as a regression
}

// endToEnd is what a user of the system sees; every workload reports all
// nine (README.md says what each means on each workload).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", timingBound},
	{"sim_days_per_s", "sim-days/s", "higher", timingBound},
	{"heap_inuse_mb", "MB", "lower", 0.03},
	{"checkpoint_save_ms", "ms", "lower", timingBound},
	{"checkpoint_restore_ms", "ms", "lower", timingBound},
	{"checkpoint_kb", "kB", "lower", 0.001},
	{"advance_ms", "ms", "lower", timingBound},
	{"read_ms", "ms", "lower", timingBound},
	{"lifecycle_ms", "ms", "lower", timingBound},
}

// timingBound is the regression bound of every timing metric: the driver
// contract's cap. The issue asked for 0.10; the floors of identical code on
// this shared host drift by 10-30% over minutes (README.md, "Measured
// spreads"), so a tighter bound would reject unchanged code.
const timingBound = 0.25

// perLayer is the traced ledger. A workload that does not exercise a layer
// reports 0 for that layer's metrics.
var perLayer = []metricDef{
	// set-up parts, timed stand-alone
	{Name: "scenario.build_ms", Unit: "ms", Better: "lower"},
	{Name: "core.build_tables_ms", Unit: "ms", Better: "lower"},
	{Name: "data.ocean_kmt_ms", Unit: "ms", Better: "lower"},
	{Name: "data.rivers_ms", Unit: "ms", Better: "lower"},
	{Name: "coupler.build_overlap_ms", Unit: "ms", Better: "lower"},
	{Name: "spectral.new_transform_ms", Unit: "ms", Better: "lower"},
	{Name: "core.new_with_tables_ms", Unit: "ms", Better: "lower"},
	// atmosphere
	{Name: "atmos.step_ms", Unit: "ms", Better: "lower"},
	{Name: "atmos.radiation_step_ms", Unit: "ms", Better: "lower"},
	{Name: "atmos.self_share", Unit: "share", Better: "lower"},
	{Name: "atmos.steps", Unit: "count", Better: "lower"},
	{Name: "atmos.mpoints_per_s", Unit: "Mpoints/s", Better: "higher"},
	// spectral kernels, timed stand-alone at the workload's truncation
	{Name: "spectral.analyze_many_us", Unit: "us", Better: "lower"},
	{Name: "spectral.synthesize_many_us", Unit: "us", Better: "lower"},
	{Name: "spectral.synthesize_uv_many_us", Unit: "us", Better: "lower"},
	{Name: "spectral.analyze_div_pair_many_us", Unit: "us", Better: "lower"},
	{Name: "spectral.vort_div_tend_us", Unit: "us", Better: "lower"},
	{Name: "spectral.table_kb", Unit: "kB", Better: "lower"},
	// coupler
	{Name: "coupler.exchange_ms", Unit: "ms", Better: "lower"},
	{Name: "coupler.exchange_calls", Unit: "count", Better: "lower"},
	{Name: "coupler.drain_ms", Unit: "ms", Better: "lower"},
	{Name: "coupler.import_ms", Unit: "ms", Better: "lower"},
	{Name: "coupler.share", Unit: "share", Better: "lower"},
	// ocean
	{Name: "ocean.step_ms", Unit: "ms", Better: "lower"},
	{Name: "ocean.steps", Unit: "count", Better: "lower"},
	{Name: "ocean.share", Unit: "share", Better: "lower"},
	{Name: "ocean.mcells_per_s", Unit: "Mcells/s", Better: "higher"},
	// schedule interpreter (sched/exec), untraced Model.Step by tick class
	{Name: "exec.tick_plain_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.tick_radiation_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.tick_couple_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.overhead_share", Unit: "share", Better: "lower"},
	{Name: "exec.allocs_per_block", Unit: "count", Better: "lower"},
	// checkpoint path
	{Name: "core.checkpoint_capture_ms", Unit: "ms", Better: "lower"},
	{Name: "core.checkpoint_encode_ms", Unit: "ms", Better: "lower"},
	{Name: "core.checkpoint_decode_ms", Unit: "ms", Better: "lower"},
	{Name: "core.restore_ms", Unit: "ms", Better: "lower"},
	// ensemble scheduler, called directly, and the HTTP handler on top of it
	{Name: "ensemble.advance_direct_ms", Unit: "ms", Better: "lower"},
	{Name: "ensemble.advance_run_ms", Unit: "ms", Better: "lower"},
	{Name: "ensemble.advance_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.advance_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "ensemble.snapshot_direct_ms", Unit: "ms", Better: "lower"},
	{Name: "ensemble.fork_direct_ms", Unit: "ms", Better: "lower"},
	{Name: "ensemble.resume_direct_ms", Unit: "ms", Better: "lower"},
	{Name: "ensemble.delete_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.snapshot_encode_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.resume_decode_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.snapshot_body_kb", Unit: "kB", Better: "lower"},
	{Name: "ensemble.diag_ms", Unit: "ms", Better: "lower"},
	{Name: "ensemble.sst_direct_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.sst_encode_ms", Unit: "ms", Better: "lower"},
	{Name: "ensemble.table_sets", Unit: "count", Better: "lower"},
	{Name: "ensemble.allocs_per_block", Unit: "count", Better: "lower"},
	{Name: "ensemble.gc_cycles_per_block", Unit: "count", Better: "lower"},
	// worker pool, informational: needs a second core the host may not give
	{Name: "pool.speedup_w2", Unit: "x", Better: "higher"},
	// quality of the measurement itself
	{Name: "bench.noise_ratio", Unit: "x", Better: "lower"},
	{Name: "bench.floor_support", Unit: "share", Better: "higher"},
	{Name: "bench.trace_overhead", Unit: "share", Better: "lower"},
	{Name: "bench.span_ns", Unit: "ns", Better: "lower"},
	{Name: "bench.spans_per_block", Unit: "count", Better: "lower"},
	{Name: "bench.replays", Unit: "count", Better: "higher"},
	{Name: "raw.block_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "raw.block_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "raw.advance_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "raw.advance_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "raw.read_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "raw.read_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "raw.save_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "raw.save_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "raw.restore_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "raw.restore_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "raw.lifecycle_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "raw.lifecycle_p90_ms", Unit: "ms", Better: "lower"},
}

// result is the outcome of one run of one workload.
type result struct {
	workload string
	traced   bool
	values   map[string]float64
	tally
	notes []string // ungated context printed beside the metrics
	spans []span
}

func newResult(workload string, traced bool) *result {
	return &result{workload: workload, traced: traced, values: map[string]float64{}}
}

// set records a metric; a name neither table defines is a bug in bench/.
func (r *result) set(name string, v float64) {
	if !defined[name] {
		panic("bench: undefined metric " + name)
	}
	r.values[name] = v
}

var defined = func() map[string]bool {
	m := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		m[d.Name] = true
	}
	return m
}()

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) defs() []metricDef {
	if r.traced {
		return perLayer
	}
	return endToEnd
}

// printHuman lists every metric of the run by name with its unit, then the
// ungated notes and the op counts.
func (r *result) printHuman(w io.Writer) {
	for _, d := range r.defs() {
		fmt.Fprintf(w, "%-16s %-36s %14.6g %s\n", r.workload, d.Name, r.values[d.Name], d.Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "%-16s # %s\n", r.workload, n)
	}
	fmt.Fprintf(w, "%-16s ops_attempted %d ops_failed %d\n", r.workload, r.attempted, r.failed)
	for _, f := range r.failures {
		fmt.Fprintf(w, "%-16s FAILED %s\n", r.workload, f)
	}
}

// jsonLine is the one-line result the driver reads: exactly the keys
// correct, attempted, failed and metrics. A metric that came out non-finite
// (a layer that recorded nothing) is reported as 0 and counted as a failure.
func (r *result) jsonLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	for _, d := range r.defs() {
		v := r.values[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.check(fmt.Errorf("metric %s is %v", d.Name, v))
			v = 0
		}
		metrics[d.Name] = mv{v, d.Unit}
	}
	b, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, metrics}) // finite numbers and strings always encode
	return string(b)
}

// setupMetric sets setup_s, the minimum over the run's cold constructions,
// and notes their median beside it.
func (r *result) setupMetric(setup []float64) {
	r.set("setup_s", minFloat(setup))
	r.notef("setup_s is the min of %d cold constructions; their median is %.4g s", len(setup), medianFloat(setup))
}

// latencyMetrics sets the four latency metrics every workload derives the
// same way: the median over a kind's op indices of their floors.
func (r *result) latencyMetrics(s *samples) {
	r.set("checkpoint_save_ms", s.kindFloor("save")/nsPerMs)
	r.set("checkpoint_restore_ms", s.kindFloor("restore")/nsPerMs)
	r.set("advance_ms", s.kindFloor("advance")/nsPerMs)
	r.set("read_ms", s.kindFloor("read")/nsPerMs)
}

// quality records what the floors hide, ungated: the block's raw median and
// p90 beside its floor, the noise ratio and floor support, and the raw
// median and p90 (n stated) of each listed kind. The traced run also
// reports them as bench.* and raw.* metrics.
func (r *result) quality(s *samples, kinds ...string) {
	blocks := s.rawBlocks()
	p50, p90 := quantileInt(blocks, 0.5)/nsPerMs, quantileInt(blocks, 0.9)/nsPerMs
	noise, support := s.noiseRatio(), s.floorSupport()
	r.notef("block floor %.4g ms  raw p50 %.4g ms  p90 %.4g ms  replays=%d  noise_ratio %.4f  floor_support %.3f",
		float64(s.blockFloor())/nsPerMs, p50, p90, len(s.t), noise, support)
	r.set("bench.noise_ratio", noise)
	r.set("bench.floor_support", support)
	r.set("bench.replays", float64(len(s.t)))
	r.set("raw.block_p50_ms", p50)
	r.set("raw.block_p90_ms", p90)
	for _, kind := range kinds {
		_, raw := s.units(kind)
		p50, p90 := quantileInt(raw, 0.5)/nsPerMs, quantileInt(raw, 0.9)/nsPerMs
		r.notef("raw %-9s p50 %.4g ms  p90 %.4g ms  n=%d  floor %.4g ms", kind, p50, p90, len(raw), s.kindFloor(kind)/nsPerMs)
		if defined["raw."+kind+"_p50_ms"] {
			r.set("raw."+kind+"_p50_ms", p50)
			r.set("raw."+kind+"_p90_ms", p90)
		}
	}
}
