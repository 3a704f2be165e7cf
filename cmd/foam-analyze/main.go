// Command foam-analyze runs the paper's Figure-4 analysis pipeline on a
// monthly SST series recorded by `foam -record`: anomalies, seasonal-cycle
// removal, 60-month Lanczos low-pass, area-weighted EOF, VARIMAX rotation,
// and the two-basin diagnostic.
//
// Usage:
//
//	foam-analyze [-cutoff 60] [-scenario r5-quick] sst.csv
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"foam"
	"foam/internal/diag"
	"foam/internal/sphere"
)

func main() {
	cutoff := flag.Int("cutoff", 60, "low-pass cutoff in months")
	scen := flag.String("scenario", "r5-quick", "registry scenario the series was recorded with (its ocean grid locates the cells)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: foam-analyze [-cutoff N] [-scenario name] series.csv")
		os.Exit(2)
	}
	cfg, err := foam.ScenarioConfig(*scen)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	series, err := readCSV(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "read:", err)
		os.Exit(1)
	}
	fmt.Printf("loaded %d months x %d cells\n", len(series), len(series[0]))

	grid := sphere.NewMercatorGrid(cfg.Ocn.NLat, cfg.Ocn.NLon, cfg.Ocn.LatSouth, cfg.Ocn.LatNorth)
	mask := make([]float64, grid.Size())
	for c := range mask {
		// A cell that is exactly 0 across the whole series is land.
		for t := range series {
			//foam:allow floatcmp land cells are written as literal 0, so the sentinel test must be exact
			if series[t][c] != 0 {
				mask[c] = 1
				break
			}
		}
	}
	res, err := foam.AnalyzeVariability(grid, mask, series, *cutoff)
	if err != nil {
		fmt.Fprintln(os.Stderr, "analyze:", err)
		os.Exit(1)
	}
	fmt.Printf("leading rotated EOF: %.1f%% of low-passed variance\n", 100*res.VarFrac)
	fmt.Printf("two-basin loading product: %+.2f\n", res.BasinCorr)
	bm := make([]bool, len(mask))
	for c, v := range mask {
		bm[c] = v > 0
	}
	diag.AsciiMap(os.Stdout, grid, res.Pattern, bm, 96, "Leading rotated SST pattern")
}

func readCSV(path string) ([][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out [][]float64
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		parts := strings.Split(strings.TrimSpace(sc.Text()), ",")
		if len(parts) < 2 {
			continue
		}
		row := make([]float64, len(parts))
		for i, p := range parts {
			row[i], err = strconv.ParseFloat(p, 64)
			if err != nil {
				return nil, fmt.Errorf("line %d col %d: %w", len(out)+1, i+1, err)
			}
		}
		out = append(out, row)
	}
	return out, sc.Err()
}
