// Command foam runs coupled FOAM-Go simulations.
//
// Usage:
//
//	foam [-scenario name|file.json] [-list-scenarios] [-lag 0|1]
//	     [-workers N] [-days N] [-record sst.csv] [-quiet]
//
// The model is compiled from a named registry scenario (see -list-scenarios
// for the table; r5-quick by default, paper-foam is the paper's full model)
// or from a JSON spec file (internal/scenario, DESIGN.md section 17). The
// scenario owns the coupling lag; an explicit -lag wins. With -record,
// monthly mean SST fields are appended to a CSV (one row per month) for
// later analysis with foam-analyze. The -workers flag sizes the worker pool
// (1 = serial); results are bit-identical for any value (see DESIGN.md
// section 12).
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"foam"
	"foam/internal/diag"
	"foam/internal/scenario"
)

// listScenarios prints the registry table the -list-scenarios flag asks for.
func listScenarios(w io.Writer) error {
	rows, err := scenario.Rows()
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "NAME\tGRID\tPHYSICS\tOCEAN\tWORLD\tDESCRIPTION")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\n", r.Name, r.Grid, r.Physics, r.Ocean, r.World, r.Description)
	}
	return tw.Flush()
}

// resolveConfig turns -scenario and -lag into the run's configuration and
// label. The argument is a registered name or a path to a JSON spec file,
// r5-quick when empty; the scenario owns the coupling lag, and only an
// explicit -lag (lag >= 0) overrides it.
func resolveConfig(arg string, lag int) (foam.Config, string, error) {
	if arg == "" {
		arg = "r5-quick"
	}
	sp, ok := scenario.Lookup(arg)
	if !ok {
		blob, err := os.ReadFile(arg)
		if err != nil {
			return foam.Config{}, "", fmt.Errorf("scenario %q is not a registered name (have %v) and not a readable spec file: %v",
				arg, scenario.Names(), err)
		}
		if sp, err = scenario.Decode(blob); err != nil {
			return foam.Config{}, "", err
		}
		if sp.Name == "" {
			sp.Name = arg
		}
	}
	cfg, err := scenario.Build(sp)
	if lag >= 0 {
		cfg.OceanLag = lag
	}
	return cfg, sp.Name, err
}

// advance steps the model the given number of ticks, calling endOfDay with
// the count of days completed so far each time another stepsPerDay ticks
// are done. A fractional last day is stepped but not reported.
func advance(m *foam.Model, ticks, stepsPerDay int, endOfDay func(day int)) {
	for s := 1; s <= ticks; s++ {
		m.Step()
		if s%stepsPerDay == 0 {
			endOfDay(s / stepsPerDay)
		}
	}
}

func main() {
	days := flag.Float64("days", 30, "simulated days to run (rounded to whole atmosphere steps)")
	record := flag.String("record", "", "CSV file to append monthly mean SST rows to")
	quiet := flag.Bool("quiet", false, "suppress periodic diagnostics")
	mapOut := flag.Bool("map", true, "print an ASCII SST map at the end")
	saveChk := flag.String("checkpoint", "", "write a restart checkpoint here at the end (replaces the file atomically)")
	resume := flag.String("resume", "", "resume from a checkpoint file")
	workers := flag.Int("workers", 0, "worker pool size (0 = all CPUs, 1 = serial); results are bit-identical for any value")
	lag := flag.Int("lag", -1, "ocean coupling lag: 0 = synchronous, 1 = the paper's lagged coupling, -1 = the scenario's")
	scen := flag.String("scenario", "", "named scenario or JSON spec file to compile the model from (default r5-quick)")
	list := flag.Bool("list-scenarios", false, "print the scenario registry table and exit")
	flag.Parse()

	if *list {
		if err := listScenarios(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "foam:", err)
			os.Exit(1)
		}
		return
	}

	cfg, runName, err := resolveConfig(*scen, *lag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "foam:", err)
		os.Exit(2)
	}
	cfg.Workers = *workers
	m, err := foam.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "foam:", err)
		os.Exit(1)
	}
	if *resume != "" {
		// One line either way: a file that is not a version-1 checkpoint
		// (core.ErrCheckpointFormat, ErrCheckpointCorrupt) or one from another
		// configuration (ErrCheckpointMismatch); the error says which.
		chk, err := foam.LoadCheckpointFile(*resume)
		if err == nil {
			err = m.Restore(chk)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "resume: %s: %v\n", *resume, err)
			os.Exit(1)
		}
		fmt.Printf("resumed from %s at step %d (%.1f simulated days)\n",
			*resume, m.StepCount(), m.SimTime()/86400)
	}
	fmt.Printf("FOAM-Go %s: R%d atmosphere %dx%dx%d dt=%.0fs; ocean %dx%dx%d dt=%.0fs; coupling every %d steps\n",
		runName, cfg.Atm.Trunc.M, cfg.Atm.NLat, cfg.Atm.NLon, cfg.Atm.NLev, cfg.Atm.Dt,
		cfg.Ocn.NLat, cfg.Ocn.NLon, cfg.Ocn.NLev, cfg.Ocn.DtTracer, cfg.OceanEvery)

	var rec *os.File
	if *record != "" {
		rec, err = os.OpenFile(*record, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "record:", err)
			os.Exit(1)
		}
		defer rec.Close()
	}

	t0 := time.Now()
	sim0 := m.SimTime()
	stepsPerDay := int(86400 / cfg.Atm.Dt)
	n := len(m.SST())
	acc := make([]float64, n)
	advance(m, int(math.Round(*days*float64(stepsPerDay))), stepsPerDay, func(daysDone int) {
		for c, v := range m.SST() {
			acc[c] += v / 30
		}
		if rec != nil && daysDone%30 == 0 {
			row := make([]string, n)
			for c, v := range acc {
				row[c] = fmt.Sprintf("%.4f", v)
				acc[c] = 0
			}
			fmt.Fprintln(rec, strings.Join(row, ","))
		}
		if !*quiet && daysDone%10 == 0 {
			di := m.Diagnostics()
			// Unit suffixes come from the diag.Units table, not literals.
			fmt.Printf("day %4d: T=%.1f%s ps=%.0f%s wind=%.1f%s SST=%.2f%s ice=%.2e %s speedup so far %.0fx\n",
				daysDone, di.Atm.MeanT, diag.Unit("MeanT"),
				di.Atm.MeanPs, diag.Unit("MeanPs"),
				di.Atm.MaxWind, diag.Unit("MaxWind"),
				di.Ocn.MeanSST, diag.Unit("MeanSST"),
				di.Ocn.IceFlux, diag.Unit("IceFlux"),
				float64(daysDone)*86400/time.Since(t0).Seconds())
		}
	})
	el := time.Since(t0)
	sim := m.SimTime() - sim0
	fmt.Printf("completed %g simulated days in %v => %.0fx real time\n",
		sim/86400, el.Round(time.Millisecond), sim/el.Seconds())
	if *saveChk != "" {
		if err := m.Checkpoint().SaveFile(*saveChk); err != nil {
			fmt.Fprintf(os.Stderr, "checkpoint: %s not written (a previous file there is untouched): %v\n", *saveChk, err)
			os.Exit(1)
		}
		fmt.Printf("checkpoint written to %s\n", *saveChk)
	}
	if *mapOut {
		mask := make([]bool, n)
		for c, v := range m.Ocn.Mask() {
			mask[c] = v > 0
		}
		diag.AsciiMap(os.Stdout, m.Ocn.Grid(), m.SST(), mask, 96, "Final SST (deg C)")
	}
}
