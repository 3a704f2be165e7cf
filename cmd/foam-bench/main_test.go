package main

import (
	"fmt"
	"strings"
	"testing"
)

// TestExperimentTable: the table is E1..E11 in order, no gaps, no
// duplicates, and the default -run list is exactly that table.
func TestExperimentTable(t *testing.T) {
	if len(experiments) != 11 {
		t.Fatalf("table has %d experiments, want 11", len(experiments))
	}
	for i, e := range experiments {
		if want := fmt.Sprintf("E%d", i+1); e.id != want {
			t.Errorf("row %d has id %s, want %s", i, e.id, want)
		}
	}
	sel, err := selectExperiments(experimentIDs())
	if err != nil || len(sel) != len(experiments) {
		t.Fatalf("default list selects %d experiments, err %v", len(sel), err)
	}
}

func TestSelectExperiments(t *testing.T) {
	sel, err := selectExperiments(" e9,E1 ")
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 2 || sel[0].id != "E1" || sel[1].id != "E9" {
		t.Fatalf("selected %v, want E1 then E9 (table order)", sel)
	}
	// Empty ids are ignored, as a trailing comma or an empty -run produces.
	if sel, err = selectExperiments("E1,"); err != nil || len(sel) != 1 || sel[0].id != "E1" {
		t.Fatalf("\"E1,\" selected %v, err %v; want E1 alone", sel, err)
	}
	if sel, err = selectExperiments(""); err != nil || len(sel) != 0 {
		t.Fatalf("empty list selected %v, err %v; want nothing", sel, err)
	}
	_, err = selectExperiments("E1,E99")
	if err == nil {
		t.Fatal("selectExperiments accepted E99")
	}
	if !strings.Contains(err.Error(), "E99") || !strings.Contains(err.Error(), experimentIDs()) {
		t.Fatalf("error does not name the bad id and the valid list: %v", err)
	}
}

// TestExperimentsSmoke drives every experiment through the function main
// calls, at a horizon shrunk to a unit-test budget, and checks that each
// reaches its last result line and the closing line. The month-length
// experiments still integrate whole 30-day months (E3 thirteen of them,
// the fewest its seasonal-cycle removal leaves any variance in), so -short
// leaves them (and the paper-resolution E6) to the full run.
func TestExperimentsSmoke(t *testing.T) {
	smoke := horizon{dayScale: 0.25, monthScale: 1.0 / 30}
	last := map[string]string{
		"E1":  "ocean busy",
		"E2":  "(c) model minus observed",
		"E3":  "two-basin loading product",
		"E4":  "latitude-pair decomposition",
		"E5":  "computation-per-simulated-time advantage",
		"E6":  "ratio:",
		"E7":  "throughput advantage",
		"E8":  "fitted exponent",
		"E9":  "routing residual",
		"E10": "unsplit + physical gravity",
		"E11": "warm pool - cold tongue",
	}
	slow := map[string]bool{"E2": true, "E3": true, "E6": true, "E11": true}
	for _, e := range experiments {
		t.Run(e.id, func(t *testing.T) {
			if slow[e.id] && testing.Short() {
				t.Skip("integrates whole months or the paper configuration")
			}
			t.Parallel() // nothing here asserts on a timing
			var out strings.Builder
			if err := runExperiment(&out, e, smoke); err != nil {
				t.Fatal(err)
			}
			got := out.String()
			if !strings.Contains(got, last[e.id]) {
				t.Errorf("%s output lacks its result line %q:\n%s", e.id, last[e.id], got)
			}
			if !strings.HasSuffix(got, "]\n") || !strings.Contains(got, "["+e.id+" completed in ") {
				t.Errorf("%s output does not end with its closing line:\n%s", e.id, got)
			}
		})
	}
}
