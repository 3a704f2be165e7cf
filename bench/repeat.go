package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// childMetrics runs one untraced workload run in a fresh child process and
// returns its end-to-end metrics, parsed from the last line of its output.
func childMetrics(exe, workload string, seed int64, seconds float64, quick bool) (map[string]float64, error) {
	args := []string{"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0"}
	if quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res struct {
		Correct bool
		Failed  int
		Metrics map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s: last output line is not the result: %w", workload, err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("%s: run incorrect, %d ops failed", workload, res.Failed)
	}
	m := map[string]float64{}
	for k, v := range res.Metrics {
		m[k] = v.Value
	}
	return m, nil
}

// repeatRuns runs every workload (or the named one) n times, each run in a
// fresh child process, and prints per workload and end-to-end metric the
// values, their relative difference (max-min over min) and the bound. It
// returns the exit code: 1 if a child failed or a difference exceeds its
// bound.
func repeatRuns(n int, only string, seed int64, seconds float64, quick bool) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	code := 0
	fmt.Printf("%-16s %-22s %8s %6s  values\n", "workload", "metric", "diff", "bound")
	for _, w := range workloads {
		if only != "" && w.name != only {
			continue
		}
		runs := make([]map[string]float64, 0, n)
		for k := 0; k < n; k++ {
			m, err := childMetrics(exe, w.name, seed, seconds, quick)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			runs = append(runs, m)
		}
		for _, d := range endToEnd {
			lo, hi := runs[0][d.Name], runs[0][d.Name]
			vals := ""
			for _, m := range runs {
				v := m[d.Name]
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
				vals += fmt.Sprintf(" %.6g", v)
			}
			diff := (hi - lo) / lo
			verdict := ""
			if diff > d.Bound {
				verdict = "  EXCEEDS BOUND"
				code = 1
			}
			fmt.Printf("%-16s %-22s %8.4f %6.3f %s %s%s\n", w.name, d.Name, diff, d.Bound, vals, d.Unit, verdict)
		}
	}
	return code
}
