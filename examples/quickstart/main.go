// Quickstart: compile the r5-quick scenario (the cheap rung of the model
// hierarchy, the configuration the tests run), run a simulated
// month, and print global diagnostics plus an ASCII map of the sea surface
// temperature.
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
		fmt.Fprintln(os.Stderr, "foam:", err)
		os.Exit(1)
	}
	m, err := foam.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "foam:", err)
		os.Exit(1)
	}
	fmt.Printf("FOAM-Go quickstart: R%d atmosphere (%dx%dx%d), %dx%dx%d ocean\n",
		cfg.Atm.Trunc.M, cfg.Atm.NLat, cfg.Atm.NLon, cfg.Atm.NLev,
		cfg.Ocn.NLat, cfg.Ocn.NLon, cfg.Ocn.NLev)
	for day := 1; day <= 30; day++ {
		m.StepDays(1)
		if day%10 == 0 {
			d := m.Diagnostics()
			fmt.Printf("day %2d: mean T(atm)=%.1f K  ps=%.0f Pa  max wind=%.1f m/s  "+
				"SST=%.2f C  precip=%.2f mm/day\n",
				day, d.Atm.MeanT, d.Atm.MeanPs, d.Atm.MaxWind,
				d.Ocn.MeanSST, d.Atm.PrecipMean*86400)
		}
	}
	mask := make([]bool, len(m.Ocn.Mask()))
	for c, v := range m.Ocn.Mask() {
		mask[c] = v > 0
	}
	diag.AsciiMap(os.Stdout, m.Ocn.Grid(), m.SST(), mask, 96, "\nSea surface temperature (deg C)")
}
