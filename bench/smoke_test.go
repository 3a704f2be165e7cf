package main

import (
	"encoding/json"
	"testing"
)

// quickBudget is the -quick setting: two replays per pass.
var quickBudget = budget{minR: 2, maxR: 2}

// checkResult verifies what every run must deliver: no failed op, every
// metric of its table present with a finite value, and a well-formed result
// line with exactly the contract's keys.
func checkResult(t *testing.T, res *result) {
	t.Helper()
	if res.failed != 0 || res.attempted < 1 {
		t.Fatalf("%d of %d ops failed: %v", res.failed, res.attempted, res.failures)
	}
	for _, d := range res.defs() {
		v, ok := res.values[d.Name]
		if !ok && !res.traced {
			t.Errorf("metric %s missing", d.Name)
		}
		if !res.traced && !(v > 0) {
			t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, v)
		}
	}
	var line struct {
		Correct   *bool `json:"correct"`
		Attempted *int  `json:"attempted"`
		Failed    *int  `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(res.jsonLine()), &line); err != nil {
		t.Fatalf("result line: %v", err)
	}
	if line.Correct == nil || !*line.Correct || line.Attempted == nil || line.Failed == nil {
		t.Errorf("result line %s lacks correct/attempted/failed", res.jsonLine())
	}
	if len(line.Metrics) != len(res.defs()) {
		t.Errorf("result line carries %d metrics, want %d", len(line.Metrics), len(res.defs()))
	}
	for _, d := range res.defs() {
		m, ok := line.Metrics[d.Name]
		if !ok || m.Value == nil || m.Unit != d.Unit {
			t.Errorf("result line metric %s = %+v, want a value in %s", d.Name, m, d.Unit)
		}
	}
}

// TestQuickUntraced is the -quick end-to-end smoke of all four workloads with
// every correctness check on.
func TestQuickUntraced(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			checkResult(t, w.run(1, quickBudget, false))
		})
	}
}

// TestQuickTraced runs the traced path on a second seed: the hand-driven
// component loop must end bit-identical to core.Model (a mismatch is a
// failed op), every layer the workload exercises must report, and the
// recorded spans must verify. atmos_r21_slab shares coupled_r15's code path
// and is left to `go run ./bench -quick`.
func TestQuickTraced(t *testing.T) {
	layers := map[string][]string{
		"coupled_r15": {"atmos.step_ms", "coupler.exchange_ms", "ocean.step_ms", "exec.tick_couple_ms",
			"core.checkpoint_encode_ms", "core.build_tables_ms", "spectral.analyze_many_us", "pool.speedup_w2"},
		"ocean_128": {"ocean.step_ms", "ocean.share", "data.ocean_kmt_ms"},
		"ensemble_r5": {"ensemble.advance_direct_ms", "ensemble.advance_run_ms", "serve.snapshot_encode_ms",
			"serve.resume_decode_ms", "ensemble.table_sets", "ensemble.allocs_per_block", "atmos.step_ms"},
	}
	for _, w := range workloads {
		want, ok := layers[w.name]
		if !ok {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			res := w.run(4, quickBudget, true)
			checkResult(t, res)
			if err := verifySpans(res.spans); err != nil {
				t.Errorf("trace: %v", err)
			}
			for _, name := range want {
				if !(res.values[name] > 0) {
					t.Errorf("layer metric %s = %v, want > 0", name, res.values[name])
				}
			}
			if res.values["bench.replays"] != 2 {
				t.Errorf("bench.replays = %v, want 2", res.values["bench.replays"])
			}
		})
	}
}
