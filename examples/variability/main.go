// Variability: a short version of the paper's Figure 4 pipeline — run the
// coupled model, collect monthly SST, low-pass filter, EOF + VARIMAX, and
// report the leading rotated mode with its two-basin diagnostic. The full
// multi-decade version runs through cmd/foam-bench -run E3.
package main

import (
	"flag"
	"fmt"
	"os"

	"foam"
	"foam/internal/diag"
)

func main() {
	months := flag.Int("months", 36, "simulated months to run")
	flag.Parse()
	cfg, err := foam.ScenarioConfig("r5-quick")
	if err != nil {
		fmt.Fprintln(os.Stderr, "foam:", err)
		os.Exit(1)
	}
	m, err := foam.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "foam:", err)
		os.Exit(1)
	}
	fmt.Printf("running %d simulated months...\n", *months)
	series := m.MonthlyMeanSST(*months)
	res, err := foam.AnalyzeVariability(m.Ocn.Grid(), m.Ocn.Mask(), series, 60)
	if err != nil {
		fmt.Fprintln(os.Stderr, "analysis:", err)
		os.Exit(1)
	}
	fmt.Printf("leading rotated EOF: %.1f%% of low-passed variance\n", 100*res.VarFrac)
	fmt.Printf("two-basin loading product (positive = same sign, as Figure 4): %+.2f\n", res.BasinCorr)
	mask := make([]bool, len(m.Ocn.Mask()))
	for c, v := range m.Ocn.Mask() {
		mask[c] = v > 0
	}
	diag.AsciiMap(os.Stdout, m.Ocn.Grid(), res.Pattern, mask, 96, "\nLeading rotated SST pattern")
	fmt.Println("\nPC time series (normalized):")
	for t, v := range res.PC {
		if t%6 == 0 {
			fmt.Printf("  month %3d: %+.3f\n", t, v)
		}
	}
}
