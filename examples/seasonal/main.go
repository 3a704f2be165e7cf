// Seasonal: run the coupled model through a simulated year and track the
// tropical Pacific — warm pool and cold tongue indices, the seasonal cycle
// of hemispheric SST, and ice cover. The region the paper's Section 6
// singles out ("the tropical Pacific, an important region for climate
// variability because of ... El Nino").
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"foam"
	"foam/internal/diag"
	"foam/internal/sphere"
)

func main() {
	months := flag.Int("months", 12, "simulated months")
	pgm := flag.String("pgm", "", "write a final SST image (PGM) to this path")
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
	g := m.Ocn.Grid()
	mask := m.Ocn.Mask()
	boxMean := func(f []float64, lat0, lat1, lon0, lon1 float64) float64 {
		num, den := 0.0, 0.0
		for j := 0; j < g.NLat(); j++ {
			latD := g.Lats[j] * sphere.Rad2Deg
			if latD < lat0 || latD > lat1 {
				continue
			}
			for i := 0; i < g.NLon(); i++ {
				lonD := g.Lons[i] * sphere.Rad2Deg
				if lonD > 180 {
					lonD -= 360
				}
				in := lonD >= lon0 && lonD <= lon1
				if lon0 > lon1 {
					in = lonD >= lon0 || lonD <= lon1
				}
				c := g.Index(j, i)
				if in && mask[c] > 0 {
					a := g.Area(j, i)
					num += f[c] * a
					den += a
				}
			}
		}
		if den <= 0 {
			return math.NaN()
		}
		return num / den
	}
	fmt.Printf("%6s %10s %10s %10s %10s %8s\n",
		"month", "warmpool", "coldtong", "NH-SST", "SH-SST", "ice%")
	series := m.MonthlyMeanSST(*months)
	for mo, sst := range series {
		wp := boxMean(sst, -10, 10, 120, 170)
		ct := boxMean(sst, -8, 8, -140, -90)
		nh := boxMean(sst, 20, 60, -180, 180)
		sh := boxMean(sst, -60, -20, -180, 180)
		fmt.Printf("%6d %10.2f %10.2f %10.2f %10.2f %7.1f%%\n",
			mo+1, wp, ct, nh, sh, 100*m.Cpl.Ice.Coverage())
	}
	if *pgm != "" {
		bm := make([]bool, len(mask))
		for c, v := range mask {
			bm[c] = v > 0
		}
		if err := diag.SavePGM(*pgm, g, m.SST(), bm); err != nil {
			fmt.Fprintln(os.Stderr, "pgm:", err)
			os.Exit(1)
		}
		fmt.Println("SST image written to", *pgm)
	}
}
