// Watercycle: demonstrate the closed hydrological cycle of the paper's
// Section 4.3 — precipitation fills the soil bucket, overflow is routed
// down synthetic rivers at 0.35 m/s, and mouths inject fresh water into the
// ocean; the budget closes to numerical precision.
package main

import (
	"fmt"
	"os"

	"foam"
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
	// Spin up so precipitation and rivers are flowing.
	m.StepDays(3)
	m.Cpl.ResetBudget()
	store0 := m.Cpl.River.TotalStorage()
	m.StepDays(7)
	b := m.Cpl.Budget()
	store1 := m.Cpl.River.TotalStorage()
	fmt.Println("Hydrological budget over 7 simulated days (kg of water):")
	fmt.Printf("  precipitation on land: %13.4e\n", b.Precip)
	fmt.Printf("  evaporation from land: %13.4e\n", b.Evap)
	fmt.Printf("  runoff into rivers:    %13.4e\n", b.Runoff)
	fmt.Printf("  river inflow to ocean: %13.4e\n", b.RiverToOcean)
	fmt.Printf("  river storage change:  %13.4e\n", (store1-store0)*1000)
	resid := b.Runoff - b.RiverToOcean - (store1-store0)*1000
	fmt.Printf("  routing residual:      %13.4e  (%.4f%% of runoff)\n",
		resid, 100*resid/b.Runoff)

	// Largest river mouths.
	net := m.Cpl.River.Network()
	g := m.Atm.Grid()
	fmt.Println("\nRiver network:", countMouths(net.Dir), "mouths on the",
		g.NLat(), "x", g.NLon(), "atmosphere grid")
}

func countMouths(dir []int) int {
	n := 0
	for _, d := range dir {
		if d == -1 {
			n++
		}
	}
	return n
}
