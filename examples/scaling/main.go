// Scaling: reproduce the flavor of the paper's Figure 2 and Section 5 —
// run the coupled model with cost tracing and replay it on a simulated
// message-passing machine, with the atmosphere (+ coupler) and ocean groups
// on their own ranks, and print the per-rank time allocation and the
// throughput table.
// The final section shows the paper's headline scheduling idea: with lagged
// coupling (OceanLag=1) the ocean step overlaps the next interval's
// atmosphere steps instead of serializing with them.
package main

import (
	"fmt"
	"os"

	"foam"
	"foam/internal/diag"
)

func main() {
	cfg, err := foam.ScenarioConfig("r5-quick")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println("=== Figure 2: time allocation, 8 atmosphere ranks + 1 ocean rank ===")
	res, _, err := foam.RunTraced(cfg, 1.0, foam.ParallelSpec{AtmRanks: 8, OcnRanks: 1, Link: foam.SPLink})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	diag.Gantt(os.Stdout, res.Machine, 100)
	diag.PrintSegmentTable(os.Stdout, res.Machine)

	fmt.Println("\n=== Throughput vs machine size ===")
	fmt.Printf("%8s %8s %12s %12s\n", "atm", "ocn", "speedup", "efficiency")
	for _, spec := range []foam.ParallelSpec{
		{AtmRanks: 2, OcnRanks: 1, Link: foam.SPLink},
		{AtmRanks: 4, OcnRanks: 1, Link: foam.SPLink},
		{AtmRanks: 8, OcnRanks: 1, Link: foam.SPLink},
		{AtmRanks: 16, OcnRanks: 2, Link: foam.SPLink},
	} {
		r, _, err := foam.RunTraced(cfg, 0.5, spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			continue
		}
		fmt.Printf("%8d %8d %11.0fx %11.2f\n", spec.AtmRanks, spec.OcnRanks, r.Speedup, r.Efficiency)
	}

	fmt.Println("\n=== Lagged coupling: overlapping the ocean with the atmosphere ===")
	fmt.Printf("%6s %12s %12s\n", "lag", "speedup", "efficiency")
	for _, lag := range []int{0, 1} {
		lc := cfg
		lc.OceanLag = lag
		r, _, err := foam.RunTraced(lc, 0.5, foam.ParallelSpec{AtmRanks: 8, OcnRanks: 1, Link: foam.SPLink})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			continue
		}
		fmt.Printf("%6d %11.0fx %11.2f\n", lag, r.Speedup, r.Efficiency)
	}
}
